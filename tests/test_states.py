import numpy as np
import pytest

from qkmap.encodings import feature_states, phase_states
from qkmap.kernels import gram
from qkmap.pauli import decompose, pauli_index
from qkmap.states import hadamard_layer, phase_layer

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
CNOT_Q1_CTRL = np.zeros((4, 4))  # control = qubit 1 (LSB), target = qubit 2
for b in range(4):
    b1, b2 = b & 1, (b >> 1) & 1
    CNOT_Q1_CTRL[(b2 ^ b1) << 1 | b1, b] = 1.0

GROUND = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
# phi1 = x1, phi2 = x2, phi12 = 0: the point (0, 0) maps to |00>, (pi, pi)
# to |11> and (pi/2, pi/2) to a state with |<00|Phi>|^2 = 1/4
SEPARABLE = lambda x1, x2: 0.0
ORIGIN, FAR, QUARTER = (0.0, 0.0), (np.pi, np.pi), (np.pi / 2, np.pi / 2)


def pair_kernel(x, z, method="exact", **shot_args):
    """One kernel value under SEPARABLE: the off-diagonal entry of the two-point Gram."""
    return gram(SEPARABLE, [x, z], method=method, **shot_args).values[0, 1]


def u1(phi):
    # phase gate as printed in the circuit diagram convention
    return np.diag([1.0, np.exp(-1j * phi)])


def on_qubit1(U):
    return np.kron(np.eye(2), U)


def on_qubit2(U):
    return np.kron(U, np.eye(2))


def random_state(rng, n=2):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amps / np.linalg.norm(amps)


class TestStateVector:
    def test_zero_state(self):
        # with zero phases the circuit is (H x H)^2 = 1: the zeros cancel
        # exactly, and the 1/sqrt(2) factors leave amplitude 0 three ulps below 1
        st = phase_states(np.zeros(3))
        assert np.all(st[1:] == 0.0)
        assert abs(st[0] - 1.0) <= 4 * np.finfo(float).eps

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            decompose(np.array([1.0, 1.0]))
        # the bound is 1e-9 on |psi|
        with pytest.raises(ValueError, match="normalized"):
            decompose(np.array([1.0 + 1e-8, 0.0]))
        assert decompose(np.array([1.0 + 1e-10, 0.0]))[pauli_index("Z", 1)] > 0.0

    def test_rejects_bad_length(self):
        for amps in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], np.zeros(0)):
            with pytest.raises(ValueError, match="2\\*\\*n"):
                decompose(np.array(amps))

    def test_amplitudes_immutable(self):
        # the layers return new arrays and never write into their input
        st = random_state(np.random.default_rng(4))
        st.setflags(write=False)
        before = st.copy()
        hadamard_layer(st)
        phase_layer(st, [0.3, -0.2], {(1, 2): 0.5})
        assert np.array_equal(st, before)
        with pytest.raises(ValueError):
            decompose(st)[0] = 0.5


class TestHadamard:
    def test_uniform_superposition(self):
        assert np.allclose(hadamard_layer(GROUND), 0.5)

    def test_involution(self):
        rng = np.random.default_rng(5)
        st = random_state(rng)
        back = hadamard_layer(hadamard_layer(st))
        assert np.max(np.abs(back - st)) < 1e-12

    def test_matches_dense_matrix_oracle(self):
        # (|00> - |01>)/sqrt(2): |01> has qubit 1 set, index 1
        amps = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
        expected = np.kron(H, H) @ amps
        assert np.max(np.abs(hadamard_layer(amps) - expected)) < 1e-12

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3, 4):
            st = hadamard_layer(random_state(rng, n))
            assert abs(np.linalg.norm(st) - 1.0) < 1e-9


class TestDiagonalPhase:
    def test_zero_phases_identity(self):
        rng = np.random.default_rng(7)
        st = random_state(rng)
        out = phase_layer(st, [0.0, 0.0], {(1, 2): 0.0})
        assert np.array_equal(out, st)

    def test_single_z_phase_on_00(self):
        # z1 = +1 on |00>, so phi1 = pi/2 multiplies by e^{i pi/2}
        out = phase_layer(GROUND, [np.pi / 2, 0.0], {(1, 2): 0.0})
        assert abs(out[0] - np.exp(1j * np.pi / 2)) < 1e-12

    def test_pair_index_out_of_range(self):
        with pytest.raises(ValueError, match="pair"):
            phase_layer(GROUND, [0.0, 0.0], {(1, 3): 0.1})
        with pytest.raises(ValueError, match="pair"):
            phase_layer(GROUND, [0.0, 0.0], {(2, 2): 0.1})

    def test_gate_sequence_equivalence(self):
        # u1(2*phi) layers with CNOT-conjugated pair phase, up to global phase
        rng = np.random.default_rng(8)
        for _ in range(100):
            p1, p2, p12 = rng.uniform(-np.pi, np.pi, 3)
            st = random_state(rng)
            diag = phase_layer(st, [p1, p2], {(1, 2): p12})
            seq = (
                on_qubit1(u1(2 * p1))
                @ on_qubit2(u1(2 * p2))
                @ CNOT_Q1_CTRL @ on_qubit2(u1(2 * p12)) @ CNOT_Q1_CTRL
            ) @ st
            overlap = np.vdot(diag, seq)
            assert abs(abs(overlap) - 1.0) < 1e-10

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(9)
        st = random_state(rng, 3)
        out = phase_layer(st, [0.3, -1.2, 2.0], {(1, 3): 0.7, (2, 3): -0.1})
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestInnerProduct:
    """Overlaps of feature states, as the exact kernel route computes them."""

    def test_self_overlap(self):
        rng = np.random.default_rng(10)
        for x in rng.uniform(-1, 1, (20, 2)):
            assert abs(pair_kernel(x, x) - 1.0) < 1e-10

    def test_orthogonal_basis_states(self):
        assert pair_kernel(ORIGIN, FAR) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="phi_single must have 1 entries"):
            phase_layer(np.array([1.0, 0.0]), [0.0, 0.0], {})

    def test_matches_extended_precision_sum(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(-1, 1, (20, 2))
        states = feature_states(SEPARABLE, points)
        for x, z, a, b in zip(points[::2], points[1::2], states[::2], states[1::2]):
            terms = np.conj(a).astype(np.clongdouble) * b
            expected = abs(complex(np.sum(terms))) ** 2
            assert abs(pair_kernel(x, z) - expected) < 1e-12


class TestSampling:
    """The shot route: one Binomial(shots, K) draw per kernel entry."""

    def test_deterministic_basis_state(self):
        # the inversion test of a point against itself returns |00>
        assert pair_kernel(QUARTER, QUARTER, "shots", shots=100, seed=1) == 1.0
        assert pair_kernel(ORIGIN, FAR, "shots", shots=100, seed=1) == 0.0

    def test_uniform_state_binomial_bound(self):
        # K = 1/4: 10k shots keep the count within 5 sigma (sigma = 43.3)
        count = pair_kernel(ORIGIN, QUARTER, "shots", shots=10_000, seed=2) * 10_000
        assert 2250 <= count <= 2750

    def test_same_seed_identical(self):
        a = pair_kernel(ORIGIN, QUARTER, "shots", shots=1000, seed=3)
        b = pair_kernel(ORIGIN, QUARTER, "shots", shots=1000, seed=3)
        assert a == b
        pts = np.random.default_rng(3).uniform(-1, 1, (8, 2))
        g1 = gram(SEPARABLE, pts, method="shots", shots=1000, seed=3)
        g2 = gram(SEPARABLE, pts, method="shots", shots=1000, seed=3)
        assert g1.values.tobytes() == g2.values.tobytes()

    def test_shots_zero_rejected(self):
        for shots in (0, -1):
            with pytest.raises(ValueError, match="shots"):
                gram(SEPARABLE, [ORIGIN, QUARTER], method="shots", shots=shots)
            with pytest.raises(ValueError, match="shots"):
                gram(SEPARABLE, [ORIGIN], method="shots", shots=shots)

    def test_frequencies_converge(self):
        # 4-sigma band around the exact kernel per pair
        rng = np.random.default_rng(12)
        shots = 100_000
        for t in range(10):
            x, z = rng.uniform(-1, 1, (2, 2))
            p = pair_kernel(x, z)
            freq = pair_kernel(x, z, "shots", shots=shots, seed=4 + t)
            sigma = np.sqrt(p * (1 - p) / shots)
            assert abs(freq - p) <= 4 * sigma + 1e-12

    def test_counts_sum_enforced(self):
        # every entry is count / shots with an integer count in [0, shots]
        shots = 137
        pts = np.random.default_rng(13).uniform(-1, 1, (12, 2))
        counts = gram(SEPARABLE, pts, method="shots", shots=shots, seed=5).values * shots
        assert np.max(np.abs(counts - np.rint(counts))) < 1e-9
        assert counts.min() >= 0 and counts.max() <= shots
