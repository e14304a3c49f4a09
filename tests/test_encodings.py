import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmap.datasets import generate
from qkmap.encodings import (
    BUILTIN_IDS,
    EncodingError,
    builtin,
    encoding_phases,
    feature_states,
    parse_phase_expression,
    phase_states,
)
from qkmap.kernels import gram
from qkmap.pauli import coefficient_grids, coefficients
from qkmap.svm import LabeledDataset

SRC = Path(__file__).resolve().parent.parent / "src"
HH = np.kron(*[np.array([[1, 1], [1, -1]]) / np.sqrt(2)] * 2)
Z1 = np.array([1.0, -1.0, 1.0, -1.0])  # qubit 1 is the least-significant bit
Z2 = np.array([1.0, 1.0, -1.0, -1.0])


def dense_feature_unitary(p1, p2, p12):
    """U_phi (H x H) U_phi (H x H) as a dense 4x4 matrix."""
    d = np.diag(np.exp(-0.5j * (p1 * Z1 + p2 * Z2 + p12 * Z1 * Z2)))
    return d @ HH @ d @ HH


class TestBuiltins:
    def test_ef1_at_origin(self):
        assert encoding_phases(builtin("ef1"), [(0.0, 0.0)])[0].tolist() == [0.0, 0.0, 0.0]

    def test_ef2_vanishing_factor(self):
        assert encoding_phases(builtin("ef2"), [(1.0, 1.0)])[0].tolist() == [1.0, 1.0, 0.0]

    def test_ef4_at_origin(self):
        p1, p2, p12 = encoding_phases(builtin("ef4"), [(0.0, 0.0)])[0]
        assert (p1, p2) == (0.0, 0.0)
        assert abs(p12 - math.pi / 3) < 1e-15

    def test_ef3_formula(self):
        # exp(|x1-x2|^2 * ln(pi) / 8), implemented literally
        _, _, p12 = encoding_phases(builtin("ef3"), [(0.5, -0.5)])[0]
        assert abs(p12 - math.exp(1.0 * math.log(math.pi) / 8.0)) < 1e-15

    def test_ef5_formula(self):
        _, _, p12 = encoding_phases(builtin("ef5"), [(0.3, 0.4)])[0]
        assert abs(p12 - math.pi * math.cos(0.3) * math.cos(0.4)) < 1e-15

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            builtin("ef9")

    @pytest.mark.parametrize("eid", BUILTIN_IDS)
    def test_phi12_range_within_two_pi(self, eid):
        spec = builtin(eid)
        xs = np.linspace(-1.0, 1.0, 201)
        values = encoding_phases(spec, [(a, b) for b in xs for a in xs])[:, 2]
        assert values.max() - values.min() <= 2 * math.pi + 1e-12

    def test_ef4_never_divides_by_zero_on_domain(self):
        spec = builtin("ef4")
        xs = np.linspace(-1.0, 1.0, 51)
        encoding_phases(spec, [(a, b) for a in xs for b in xs])  # must not raise


class TestCustom:
    def test_custom_error_names_function(self):
        bad = lambda x1, x2: 1.0 / (x1 - x1)
        with pytest.raises(EncodingError, match="phi12"):
            encoding_phases(bad, [(0.2, 0.4)])

    def test_non_finite_input(self):
        with pytest.raises(EncodingError):
            encoding_phases(builtin("ef1"), [(float("nan"), 0.0)])


class TestFeatureState:
    def test_zero_phases_give_ground_state(self):
        spec = lambda x1, x2: 0.0
        st = feature_states(spec, [(0.0, 0.0)])[0]
        assert abs(st[0] - 1.0) < 1e-12
        assert np.max(np.abs(st[1:])) < 1e-12

    def test_deterministic(self):
        spec = builtin("ef3")
        a = feature_states(spec, [(0.3, -0.8)])
        b = feature_states(spec, [(0.3, -0.8)])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("eid", BUILTIN_IDS)
    def test_batched_states_match_dense_circuit(self, eid):
        spec = builtin(eid)
        points = np.random.default_rng(13).uniform(-1, 1, (40, 2))
        got = feature_states(spec, points)
        assert got.shape == (40, 4)
        for x, p, row in zip(points, encoding_phases(spec, points), got):
            want = dense_feature_unitary(*p)[:, 0]
            assert np.max(np.abs(row - want)) <= 1e-12
            assert np.array_equal(feature_states(spec, [x])[0], row)

    def test_random_phases_and_inverse_match_dense_circuit(self):
        rng = np.random.default_rng(14)
        phases = rng.uniform(-2 * np.pi, 2 * np.pi, (60, 3))
        for p, st in zip(phases, phase_states(phases)):
            assert np.max(np.abs(st - dense_feature_unitary(*p)[:, 0])) <= 1e-12

    def test_empty_point_set(self):
        assert feature_states(builtin("ef1"), np.empty((0, 2))).shape == (0, 4)

    def test_normalized(self):
        rng = np.random.default_rng(1)
        for eid in BUILTIN_IDS:
            x = rng.uniform(-1, 1, 2)
            st = feature_states(builtin(eid), [x])[0]
            assert abs(np.linalg.norm(st) - 1.0) < 1e-9


def _bad_right_half(x1, x2):
    return math.inf if x1 > 0.5 else 0.0


class TestFirstBadPoint:
    """Every batched route names the first point whose phase is not finite."""

    POINTS = [(0.1, 0.2), (0.6, 0.3), (0.9, -0.4)]

    @pytest.mark.parametrize("route", [
        lambda spec, pts: feature_states(spec, pts),
        lambda spec, pts: coefficients(spec, pts),
        lambda spec, pts: gram(spec, pts, method="exact"),
        lambda spec, pts: gram(spec, pts, method="pauli"),
        lambda spec, pts: gram(spec, pts, method="shots", shots=10, seed=0),
        lambda spec, pts: gram(spec, pts[:2], method="shots", shots=10, seed=0),
    ])
    def test_routes(self, route):
        with pytest.raises(EncodingError, match=r"phi12 is not finite at x=\(0\.6, 0\.3\)"):
            route(_bad_right_half, self.POINTS)

    def test_grid_scan_order(self):
        # rows run x2 = 1, 0, -1 and columns x1 = -1, 0, 1
        with pytest.raises(EncodingError, match=r"x=\(1\.0, 1\.0\)"):
            coefficient_grids(_bad_right_half, [0], (-1, 1), 3)


def reference_eval_encoding(phi12, x):
    """The earlier eval_encoding, verbatim: the byte oracle of encoding_phases's checks."""
    x1, x2 = float(x[0]), float(x[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise EncodingError("input point is not finite")
    try:
        v = phi12(x1, x2)
        if isinstance(v, complex):
            raise ValueError(f"complex value {v}")
        v = float(v)
    except (ArithmeticError, TypeError, ValueError) as exc:  # TypeError: math.cos(complex)
        raise EncodingError(f"phi12 failed at x=({x1}, {x2}): {exc}") from exc
    if not math.isfinite(v):
        raise EncodingError(f"phi12 is not finite at x=({x1}, {x2}): {v}")
    return x1, x2, v


def reference_encoding_phases(phi12, points):
    """The earlier encoding_phases, verbatim: one eval_encoding per point."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (N, 2), got {pts.shape}")
    return np.array([reference_eval_encoding(phi12, x) for x in pts],
                    dtype=float).reshape(-1, 3)


# What phi12 returns at a point, given its float value there: accepted types, then faults
RETURNS = {"float": float, "np.float64": np.float64, "int": lambda v: int(10 * v),
           "bool": lambda v: v > 0, "numeric string": repr}
FAULTS = {
    "ArithmeticError": ZeroDivisionError("float division by zero"),
    "OverflowError": OverflowError("math range error"),
    "TypeError": TypeError("must be real number, not complex"),
    "ValueError": ValueError("math domain error"),
    "complex": lambda v: complex(v, 1.0), "np.complex128": lambda v: np.complex128(v),
    "nan": lambda v: math.nan, "inf": lambda v: math.inf, "-inf": lambda v: -np.inf,
    "np.float64 nan": lambda v: np.float64("nan"), "text": lambda v: "phase",
}


@st.composite
def phase_batches(draw):
    """(phi12 factory, points): up to 300 points with up to two faults among them."""
    n = draw(st.integers(0, 300))
    scale = draw(st.sampled_from([1.0, 1e6]))
    pts = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-scale, scale, (n, 2))
    if n and draw(st.booleans()):
        pts[draw(st.integers(0, n - 1))] *= -0.0  # signed zeros
    faults = {}
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(["input"] + sorted(FAULTS)))
        if fault == "input":  # a non-finite coordinate: phi12 must not see this point
            pts[i, draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf,
                                                                    -math.inf]))
        else:
            faults[i] = FAULTS[fault]
    base = builtin(draw(st.sampled_from(BUILTIN_IDS)))
    kind = RETURNS[draw(st.sampled_from(sorted(RETURNS)))]

    def make_phi12():
        """A fresh phi12 that counts its calls: call i is point i's."""
        calls = iter(range(n))

        def phi12(x1, x2):
            fault = faults.get(next(calls))
            if isinstance(fault, Exception):
                raise type(fault)(*fault.args)
            v = base(x1, x2)
            return kind(v) if fault is None else fault(v)

        return phi12

    return make_phi12, pts


def phases_outcome(phases, phi12, pts):
    """The bytes and shape of the phases, or the exception's type, message and cause type."""
    try:
        out = phases(phi12, pts)
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__)
    return out.tobytes(), out.shape


class TestPhasesByteOracle:
    """encoding_phases, with its checks inline, against the earlier per-point loop."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(phase_batches())
    def test_equal_bytes_or_equal_error(self, batch):
        make_phi12, pts = batch
        want = phases_outcome(reference_encoding_phases, make_phi12(), pts)
        assert phases_outcome(encoding_phases, make_phi12(), pts) == want

    @pytest.mark.parametrize("x", [(0.25, -0.5), [-0.0, 3], np.array([0.1, 0.2, 9.0]),
                                   ("0.5", 1), (math.nan, 0.0), (0.0, -math.inf)])
    @pytest.mark.parametrize("fault", [None, "ValueError", "complex", "inf", "text"])
    def test_eval_encoding_is_the_one_point_case(self, x, fault):
        """encoding_phases on x[:2] gives the earlier eval_encoding's floats or its error."""
        def phi12(x1, x2):
            v = builtin("ef3")(x1, x2)
            if fault is None:
                return v
            if isinstance(FAULTS[fault], Exception):
                raise type(FAULTS[fault])(*FAULTS[fault].args)
            return FAULTS[fault](v)

        try:
            want = reference_eval_encoding(phi12, x)
        except Exception as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                encoding_phases(phi12, [x[:2]])
        else:
            got = tuple(encoding_phases(phi12, [x[:2]])[0].tolist())
            assert got == want and all(type(v) is float for v in got)

    @pytest.mark.parametrize("eid", BUILTIN_IDS + ("custom",))
    def test_moon_1600(self, eid):
        spec = (parse_phase_expression("exp(x1) * cos(x2) - x1^2 / (1 + abs(x2))")
                if eid == "custom" else builtin(eid))
        pts = generate("moon", 1600, seed=7).points
        assert encoding_phases(spec, pts).tobytes() == \
            reference_encoding_phases(spec, pts).tobytes()


class TestPointShape:
    """Points are (N, 2) on every route; no coordinate is dropped."""

    @pytest.mark.parametrize("route", [
        lambda spec, pts: feature_states(spec, pts),
        lambda spec, pts: coefficients(spec, pts),
        lambda spec, pts: gram(spec, pts, method="exact"),
        lambda spec, pts: gram(spec, pts, method="pauli"),
        lambda spec, pts: gram(spec, pts, method="shots", shots=10, seed=0),
    ])
    @pytest.mark.parametrize("points, shape", [(np.zeros((3, 3)), "(3, 3)"),
                                               ([0.1, 0.2], "(2,)"),
                                               (np.zeros((2, 1, 2)), "(2, 1, 2)")])
    def test_routes_reject(self, route, points, shape):
        with pytest.raises(ValueError, match=re.escape(f"(N, 2), got {shape}")):
            route(builtin("ef1"), points)

    @pytest.mark.parametrize("points, shown", [(np.zeros((4, 3)), "(4, 3) points and (4,)"),
                                               (np.zeros((4, 2, 1)), "(4, 2, 1) points")])
    def test_dataset_rejects(self, points, shown):
        with pytest.raises(ValueError, match=re.escape(f"one label each, got {shown}")):
            LabeledDataset(points, [1, -1, 1, -1])


class TestExpressionLanguage:
    def test_reproduces_builtins(self):
        exprs = {
            "ef1": "pi * x1 * x2",
            "ef2": "(pi/2) * (1 - x1) * (1 - x2)",
            "ef3": "exp(abs(x1 - x2)^2 / (8 / ln(pi)))",
            "ef4": "pi / (3 * cos(x1) * cos(x2))",
            "ef5": "pi * cos(x1) * cos(x2)",
        }
        rng = np.random.default_rng(2)
        for eid, text in exprs.items():
            fn = parse_phase_expression(text)
            ref = builtin(eid)
            for _ in range(20):
                x1, x2 = rng.uniform(-1, 1, 2)
                assert abs(fn(x1, x2) - ref(x1, x2)) < 1e-12

    def test_whitespace_insensitive(self):
        a = parse_phase_expression("pi*x1*x2")
        b = parse_phase_expression(" pi * x1\t* x2 ")
        assert a(0.3, 0.4) == b(0.3, 0.4)

    def test_power_and_unary_minus(self):
        fn = parse_phase_expression("-x1^2 + 2")
        assert abs(fn(3.0, 0.0) - (-7.0)) < 1e-12

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown name"):
            parse_phase_expression("x3 + 1")

    def test_rejects_unknown_function(self):
        with pytest.raises(ValueError, match="unknown function"):
            parse_phase_expression("tan(x1)")

    @pytest.mark.parametrize("text", ["sin(x1, x2)", "cos()", "exp(x=x1)"])
    def test_rejects_other_than_one_argument(self, text):
        with pytest.raises(ValueError, match=re.escape(
                f"functions take exactly one argument: {text!r}")):
            parse_phase_expression(text)

    @pytest.mark.parametrize("text", ["x1 * 2j", "x1 + 'a'", "x1 * None"])
    def test_rejects_non_numeric_constant(self, text):
        with pytest.raises(ValueError, match=re.escape(
                f"non-numeric constant in expression {text!r}")):
            parse_phase_expression(text)

    def test_rejects_attribute_access(self):
        with pytest.raises(ValueError):
            parse_phase_expression("().__class__")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_phase_expression("x1 +")

    def test_integer_tower_overflows_instead_of_hanging(self):
        # integer literals evaluated as big ints made this run without end
        script = ("from qkmap.encodings import EncodingError, encoding_phases, "
                  "parse_phase_expression\n"
                  "try:\n"
                  "    encoding_phases(parse_phase_expression('9^9^9'), [(0.1, 0.2)])\n"
                  "except EncodingError as exc:\n"
                  "    print(exc)\n")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=20, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("phi12 failed at x=(0.1, 0.2)")

    def test_rejects_oversized_constant(self):
        with pytest.raises(ValueError, match="too large"):
            parse_phase_expression("1" + "0" * 400)

    def test_complex_value_names_phase_and_point(self):
        spec = parse_phase_expression("x1^0.5")
        assert encoding_phases(spec, [(0.25, 0.0)])[0, 2] == 0.5
        match = r"phi12 failed at x=\(-0\.25, 0\.5\): complex"
        with pytest.raises(EncodingError, match=match):
            encoding_phases(spec, [(-0.25, 0.5)])

    def test_complex_argument_names_phase_and_point(self):
        # a complex power that reaches a math function raises TypeError inside phi12
        spec = parse_phase_expression("cos(x1^0.5)")
        assert encoding_phases(spec, [(0.25, 0.0)])[0, 2] == math.cos(0.5)
        with pytest.raises(EncodingError, match=r"phi12 failed at x=\(-0\.25, 0\.5\): .*complex"):
            encoding_phases(spec, [(-0.25, 0.5)])
