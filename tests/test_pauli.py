import functools
import itertools
import re

import numpy as np
import pytest

from qkmap.encodings import (
    BUILTIN_IDS,
    builtin,
    feature_states,
    parse_phase_expression,
    phase_states,
)
from qkmap.pauli import (
    TWO_QUBIT_LABELS,
    closed_form_table,
    coefficient_grids,
    coefficients,
    grid_to_csv,
    grid_to_pgm,
    pauli_index,
    pauli_label,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_paulis(n):
    """All 4^n dense Pauli matrices in index order, from the kron of 2x2 factors."""
    # product varies its last letter fastest, and that letter is qubit 1's; qubit 1
    # is the LSB, so its factor sits on the right of the kron, in tuple order
    return [functools.reduce(np.kron, [SINGLE[ch] for ch in letters])
            for letters in itertools.product("IXYZ", repeat=n)]


# Reference copy of the earlier simulator route, a complex einsum over the
# Paulis, which it takes from the test-local kron builder.
def _simulated_coefficients(amps: np.ndarray) -> np.ndarray:
    """(N, 16) coefficients <psi|sigma_i|psi> / 4 of (N, 4) amplitudes."""
    paulis = np.array(dense_paulis(2))
    e = np.einsum("nb,kbc,nc->nk", amps.conj(), paulis, amps)
    bad = np.argwhere(np.abs(e.imag) > 1e-10)
    if bad.size:
        n, i = bad[0]
        raise ArithmeticError(f"expectation of index {i} has imaginary residue {e.imag[n, i]}")
    return e.real / 4


# Reference copy of the earlier n-qubit pauli_matrix, the kron builder of the
# Pauli map of the projection below.
_SINGLE = np.array([I2, X, Y, Z], dtype=np.complex128)


def earlier_pauli_matrix(index: int, n_qubits: int = 2) -> np.ndarray:
    m = np.ones((1, 1), dtype=np.complex128)
    for k in range(n_qubits):
        m = np.kron(_SINGLE[(index >> (2 * k)) & 3], m)
    return m


def random_state(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return amps / np.linalg.norm(amps)


def projected(states) -> np.ndarray:
    """(N, 16) coefficients of (N, 4) states by the real projection the heat maps once ran.

    tr(rho sigma_i) / 4 of Hermitian rho and sigma_i is the dot product of their
    reals over 4, so the coefficients are the density reals times a (32, 16) map.
    """
    s = np.asarray(states, dtype=np.complex128)
    reals = (s[:, :, None] * s[:, None, :].conj()).reshape(len(s), -1).view(float)
    paulis = np.array([earlier_pauli_matrix(i).ravel() for i in range(16)])
    return reals @ (paulis.view(float).T / 4)


class TestIndexing:
    def test_two_qubit_order_matches_table(self):
        assert TWO_QUBIT_LABELS == (
            "II", "XI", "YI", "ZI", "IX", "XX", "YX", "ZX",
            "IY", "XY", "YY", "ZY", "IZ", "XZ", "YZ", "ZZ",
        )

    def test_roundtrip(self):
        for i in range(16):
            assert pauli_index(pauli_label(i)) == i

    def test_out_of_range(self):
        for index in (-1, 16):
            message = re.escape(f"pauli index {index} out of range [0, 16)")
            with pytest.raises(ValueError, match=message):
                pauli_label(index)
        assert pauli_label(np.int64(7)) == "ZX"
        for index in (1.0, np.float64(7)):
            message = re.escape(f"pauli index must be an integer, got {index!r}")
            with pytest.raises(ValueError, match=message):
                pauli_label(index)

    @pytest.mark.parametrize("label", ("QQ", "Z", "ZZZ", "", "Z1"))
    def test_invalid_label_rejected(self, label):
        with pytest.raises(ValueError, match="expected one of: II, XI"):
            pauli_index(label)

    def test_lowercase_and_other_sizes(self):
        assert pauli_index("zx") == pauli_index("ZX")
        for label in ("IZI", "IIII"):
            with pytest.raises(ValueError, match="expected one of: II, XI"):
                pauli_index(label)


class TestDecompose:
    def test_ground_state(self):
        vec = projected(np.array([[1.0, 0.0, 0.0, 0.0]]))[0]
        for label in TWO_QUBIT_LABELS:
            expect = 0.25 if label in ("II", "ZI", "IZ", "ZZ") else 0.0
            assert abs(vec[pauli_index(label)] - expect) < 1e-12

    @pytest.mark.parametrize("n", (2,))
    def test_matches_dense_matrix_oracle(self, n):
        rng = np.random.default_rng(0)
        paulis = dense_paulis(n)
        for _ in range(25):
            st = random_state(rng)
            vec = projected(st[None])[0]
            assert vec.shape == (16,)
            rho = np.outer(st, np.conj(st))
            for i, sigma in enumerate(paulis):
                expect = np.trace(rho @ sigma).real / 4
                assert abs(vec[i] - expect) < 1e-12

    @pytest.mark.parametrize("n", (2,))
    def test_matches_earlier_einsum_route(self, n):
        rng = np.random.default_rng(5)
        states = np.array([random_state(rng) for _ in range(20)])
        want = _simulated_coefficients(states)
        got = projected(states)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_identity_coefficient_and_purity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            st = random_state(rng)
            vec = projected(st[None])[0]
            assert abs(vec[pauli_index("II")] - 0.25) < 1e-10
            assert abs(np.sum(vec ** 2) - 0.25) < 1e-9
            # same identity through the dense route: tr(rho^2) = 1
            rho = np.outer(st, np.conj(st))
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-9


class TestClosedForms:
    def test_zero_phases(self):
        vec = closed_form_table((0.0, 0.0, 0.0))
        for label in TWO_QUBIT_LABELS:
            expect = 0.25 if label in ("II", "ZI", "IZ", "ZZ") else 0.0
            assert abs(vec[pauli_index(label)] - expect) < 1e-15

    def test_quarter_turn(self):
        vec = closed_form_table((np.pi / 2, 0.0, 0.0))
        assert abs(vec[pauli_index("ZZ")]) < 1e-15
        assert abs(vec[pauli_index("IZ")] - 0.25) < 1e-15
        assert abs(vec[pauli_index("ZI")]) < 1e-15

    def test_matches_simulator_on_random_phases(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p1, p2, p12 = rng.uniform(-np.pi, np.pi, 3)
            got = projected(phase_states([[p1, p2, p12]]))[0]
            want = closed_form_table((p1, p2, p12))
            assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("eid", ("ef1", "ef2", "ef3", "ef4", "ef5"))
    def test_matches_feature_states(self, eid):
        rng = np.random.default_rng(4)
        spec = builtin(eid)
        for _ in range(50):
            x = rng.uniform(-1, 1, 2)
            got = projected(feature_states(spec, [x]))[0]
            want = coefficients(spec, [x])[0]
            assert np.max(np.abs(got - want)) < 1e-10


class TestGrids:
    def test_identity_axis_constant(self):
        for eid in BUILTIN_IDS:
            grid = coefficient_grids(builtin(eid), [pauli_index("II")], (-1, 1), 61)[0]
            assert np.all(grid == 0.25)

    @pytest.mark.parametrize("eid", BUILTIN_IDS + ("custom",))
    def test_equals_coefficients_on_lattice(self, eid):
        phi12 = (parse_phase_expression("exp(x1) * cos(x2) - x1^2 / (1 + abs(x2))")
                 if eid == "custom" else builtin(eid))
        for lo, hi, res in ((-1.0, 1.0, 61), (-0.3, 2.5, 11), (-1.0, 1.0, 2)):
            xs = np.linspace(lo, hi, res)
            x1, x2 = np.meshgrid(xs, xs[::-1])
            want = coefficients(phi12, np.stack([x1.ravel(), x2.ravel()], axis=1))
            grids = coefficient_grids(phi12, range(16), (lo, hi), res)
            for i, grid in enumerate(grids):
                assert grid.shape == (res, res)
                assert grid.tobytes() == want[:, i].reshape(res, res).tobytes()

    def test_zz_lattice_values(self):
        grid = coefficient_grids(builtin("ef1"), [pauli_index("ZZ")], (-1, 1), 3)[0]
        xs = np.array([-1.0, 0.0, 1.0])
        for r, x2 in enumerate(xs[::-1]):
            for c, x1 in enumerate(xs):
                assert abs(grid[r, c] - np.cos(x1) * np.cos(x2) / 4.0) < 1e-12

    def test_zz_same_for_ef1_and_ef2(self):
        g1 = coefficient_grids(builtin("ef1"), [pauli_index("ZZ")], (-1, 1), 7)[0]
        g2 = coefficient_grids(builtin("ef2"), [pauli_index("ZZ")], (-1, 1), 7)[0]
        assert np.max(np.abs(g1 - g2)) < 1e-12

    def test_orientation_x2_descends(self):
        # ZI depends on phi12 too under ef1; use IZ = cos(x2)cos(phi12)/4 at
        # phi12=0 along x1=0 column? simpler: probe a direction-sensitive axis
        grid = coefficient_grids(builtin("ef1"), [pauli_index("IZ")], (0, 1), 2)[0]
        # top row is x2=1, bottom x2=0; at x1=0 column, phi12=0
        assert abs(grid[0, 0] - np.cos(1.0) / 4.0) < 1e-12
        assert abs(grid[1, 0] - 0.25) < 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            coefficient_grids(builtin("ef1"), [16], (-1, 1), 3)
        with pytest.raises(ValueError):
            coefficient_grids(builtin("ef1"), [0], (-1, 1), 1)

    @pytest.mark.parametrize("index", [1.0, np.float64(3), "3", None],
                             ids=["float", "float64", "str", "None"])
    def test_non_integer_index_rejected(self, index):
        message = re.escape(f"pauli index must be an integer, got {index!r}")
        with pytest.raises(ValueError, match=message):
            coefficient_grids(builtin("ef1"), [0, index], (-1, 1), 3)

    @pytest.mark.parametrize("resolution", [2.5, 3.0, np.float64(3), "3", None],
                             ids=["fraction", "float", "float64", "str", "None"])
    def test_non_integer_resolution_rejected(self, resolution):
        message = re.escape(f"resolution must be an integer, got {resolution!r}")
        with pytest.raises(ValueError, match=message):
            coefficient_grids(builtin("ef1"), [0], (-1, 1), resolution)

    def test_numpy_integers_accepted(self):
        want = coefficient_grids(builtin("ef2"), [3, 15], (-1, 1), 5)
        got = coefficient_grids(builtin("ef2"), np.array([3, 15]), (-1, 1), np.int64(5))
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    @pytest.mark.parametrize("x_range", [(1.0, 1.0), (1.0, -1.0), (np.nan, 1.0),
                                         (-1.0, np.nan)])
    def test_empty_or_nan_range_rejected(self, x_range):
        with pytest.raises(ValueError, match=r"range \[.*\] is empty"):
            coefficient_grids(builtin("ef1"), [0], x_range, 3)

    @pytest.mark.parametrize("eid", ("ef1", "ef2", "ef3", "ef4", "ef5"))
    def test_matches_earlier_einsum_route(self, eid):
        xs = np.linspace(-1.0, 1.0, 61)
        x1, x2 = np.meshgrid(xs, xs[::-1])
        states = feature_states(builtin(eid), np.stack([x1.ravel(), x2.ravel()], axis=1))
        want = _simulated_coefficients(states)
        grids = coefficient_grids(builtin(eid), range(16), (-1, 1), 61)
        for i, grid in enumerate(grids):
            assert np.max(np.abs(grid - want[:, i].reshape(61, 61))) <= 1e-15

    def test_shared_sweep_consistent(self):
        gs = coefficient_grids(builtin("ef3"), [3, 15], (-1, 1), 4)
        lone = coefficient_grids(builtin("ef3"), [15], (-1, 1), 4)[0]
        assert np.array_equal(gs[1], lone)


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        grid = coefficient_grids(builtin("ef1"), [pauli_index("ZZ")], (-1, 1), 3)[0]
        path = tmp_path / "zz.csv"
        grid_to_csv(grid, path)
        back = np.array([[float(v) for v in line.split(",")]
                         for line in path.read_text().splitlines()])
        assert np.array_equal(back, grid)

    def test_pgm_header_and_range(self, tmp_path):
        grid = coefficient_grids(builtin("ef1"), [pauli_index("ZZ")], (-1, 1), 4)[0]
        path = tmp_path / "zz.pgm"
        grid_to_pgm(grid, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.min() == 0 and pixels.max() == 255

    def test_identity_panel_renders_flat(self, tmp_path):
        # a_II is 1/4 everywhere; its round-off must not be stretched into gray levels
        grid = coefficient_grids(builtin("ef1"), [0], (-1, 1), 61)[0]
        path = tmp_path / "ii.pgm"
        grid_to_pgm(grid, path)
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.size == 61 * 61 and np.all(pixels == 128)

    def test_pgm_flat_grid(self, tmp_path):
        grid = np.full((3, 3), 0.25)
        path = tmp_path / "flat.pgm"
        grid_to_pgm(grid, path)
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert np.all(pixels == 128)
