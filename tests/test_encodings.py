import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qkmap.encodings import (
    BUILTIN_IDS,
    EncodingError,
    builtin,
    eval_encoding,
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
        assert eval_encoding(builtin("ef1"), (0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_ef2_vanishing_factor(self):
        assert eval_encoding(builtin("ef2"), (1.0, 1.0)) == (1.0, 1.0, 0.0)

    def test_ef4_at_origin(self):
        p1, p2, p12 = eval_encoding(builtin("ef4"), (0.0, 0.0))
        assert (p1, p2) == (0.0, 0.0)
        assert abs(p12 - math.pi / 3) < 1e-15

    def test_ef3_formula(self):
        # exp(|x1-x2|^2 * ln(pi) / 8), implemented literally
        _, _, p12 = eval_encoding(builtin("ef3"), (0.5, -0.5))
        assert abs(p12 - math.exp(1.0 * math.log(math.pi) / 8.0)) < 1e-15

    def test_ef5_formula(self):
        _, _, p12 = eval_encoding(builtin("ef5"), (0.3, 0.4))
        assert abs(p12 - math.pi * math.cos(0.3) * math.cos(0.4)) < 1e-15

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            builtin("ef9")

    @pytest.mark.parametrize("eid", BUILTIN_IDS)
    def test_phi12_range_within_two_pi(self, eid):
        spec = builtin(eid)
        xs = np.linspace(-1.0, 1.0, 201)
        values = np.array([[eval_encoding(spec, (a, b))[2] for a in xs] for b in xs])
        assert values.max() - values.min() <= 2 * math.pi + 1e-12

    def test_ef4_never_divides_by_zero_on_domain(self):
        spec = builtin("ef4")
        xs = np.linspace(-1.0, 1.0, 51)
        for a in xs:
            for b in xs:
                eval_encoding(spec, (a, b))  # must not raise


class TestCustom:
    def test_custom_error_names_function(self):
        bad = lambda x1, x2: 1.0 / (x1 - x1)
        with pytest.raises(EncodingError, match="phi12"):
            eval_encoding(bad, (0.2, 0.4))

    def test_non_finite_input(self):
        with pytest.raises(EncodingError):
            eval_encoding(builtin("ef1"), (float("nan"), 0.0))


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
        for x, row in zip(points, got):
            want = dense_feature_unitary(*eval_encoding(spec, x))[:, 0]
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

    def test_rejects_attribute_access(self):
        with pytest.raises(ValueError):
            parse_phase_expression("().__class__")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_phase_expression("x1 +")

    def test_integer_tower_overflows_instead_of_hanging(self):
        # integer literals evaluated as big ints made this run without end
        script = ("from qkmap.encodings import EncodingError, eval_encoding, "
                  "parse_phase_expression\n"
                  "try:\n"
                  "    eval_encoding(parse_phase_expression('9^9^9'), (0.1, 0.2))\n"
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
        assert eval_encoding(spec, (0.25, 0.0))[2] == 0.5
        match = r"phi12 failed at x=\(-0\.25, 0\.5\): complex"
        with pytest.raises(EncodingError, match=match):
            eval_encoding(spec, (-0.25, 0.5))
