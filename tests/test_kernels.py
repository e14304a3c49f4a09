import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from qkmap.datasets import generate
from qkmap.encodings import BUILTIN_IDS, builtin, encoding_phases, feature_states
from qkmap import kernels
from qkmap.kernels import GramMatrix, combine, gram

HH = np.kron(*[np.array([[1, 1], [1, -1]]) / np.sqrt(2)] * 2)
Z1 = np.array([1.0, -1.0, 1.0, -1.0])  # qubit 1 is the least-significant bit
Z2 = np.array([1.0, 1.0, -1.0, -1.0])


def dense_feature_unitary(p1, p2, p12):
    d = np.diag(np.exp(-0.5j * (p1 * Z1 + p2 * Z2 + p12 * Z1 * Z2)))
    return d @ HH @ d @ HH


def inversion_test_gram(spec, points, shots, seed):
    """Per-pair reference: count "00" outcomes of U(x_i)^dagger U(x_j)|00>.

    Row i draws its pairs j > i in order from one generator seeded by the
    sequence spawned as child i of ``SeedSequence(seed)``.
    """
    n = len(points)
    unitaries = [dense_feature_unitary(*p) for p in encoding_phases(spec, points)]
    k = np.eye(n)
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(i + 1)[i])
        for j in range(i + 1, n):
            state = unitaries[i].conj().T @ unitaries[j][:, 0]
            probs = np.abs(state) ** 2
            probs[probs < 1e-12] = 0.0
            probs /= probs.sum()
            k[i, j] = k[j, i] = rng.binomial(shots, probs[0]) / shots
    return k


def pair_kernel(spec, x, z, method="exact", **shot_args):
    """One kernel value: the off-diagonal entry of the two-point Gram."""
    return gram(spec, [x, z], method=method, **shot_args).values[0, 1]


class TestKernelExact:
    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(0)
        for eid in BUILTIN_IDS:
            x = rng.uniform(-1, 1, 2)
            assert abs(pair_kernel(builtin(eid), x, x) - 1.0) < 1e-10

    def test_origin_under_ef1_is_ground_state(self):
        spec = builtin("ef1")
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.uniform(-1, 1, 2)
            amp00 = feature_states(spec, [z])[0, 0]
            assert abs(pair_kernel(spec, (0.0, 0.0), z) - abs(amp00) ** 2) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(2)
        spec = builtin("ef4")
        for _ in range(50):
            v = pair_kernel(spec, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            assert 0.0 <= v <= 1.0 + 1e-9


class TestKernelPauli:
    def test_self_kernel_purity(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 2)
        assert abs(pair_kernel(builtin("ef2"), x, x, "pauli") - 1.0) < 1e-10

    def test_origin_pair_under_ef1(self):
        assert abs(pair_kernel(builtin("ef1"), (0.0, 0.0), (0.0, 0.0), "pauli") - 1.0) < 1e-12

    @pytest.mark.parametrize("eid", BUILTIN_IDS)
    def test_matches_exact_route(self, eid):
        rng = np.random.default_rng(4)
        spec = builtin(eid)
        for _ in range(30):
            x, z = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            assert abs(pair_kernel(spec, x, z, "pauli") - pair_kernel(spec, x, z)) < 1e-10


class TestKernelShots:
    def test_identical_points_give_exactly_one(self):
        spec = builtin("ef3")
        assert pair_kernel(spec, (0.4, -0.1), (0.4, -0.1), "shots", shots=500, seed=9) == 1.0

    def test_within_four_sigma_of_exact(self):
        rng = np.random.default_rng(5)
        spec = builtin("ef1")
        shots = 10_000
        misses = 0
        for trial in range(50):
            x, z = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            exact = pair_kernel(spec, x, z)
            est = pair_kernel(spec, x, z, "shots", shots=shots, seed=trial)
            sigma = np.sqrt(max(exact * (1 - exact), 1e-12) / shots)
            if abs(est - exact) > 4 * sigma:
                misses += 1
        assert misses <= 2

    def test_error_shrinks_with_shots(self):
        spec = builtin("ef2")
        x, z = (0.3, -0.5), (-0.7, 0.2)
        exact = pair_kernel(spec, x, z)

        def rms(shots, base):
            errs = [pair_kernel(spec, x, z, "shots", shots=shots, seed=base + t) - exact
                    for t in range(100)]
            return np.sqrt(np.mean(np.square(errs)))

        assert rms(16_000, 500) < rms(1_000, 100) * 0.5

    def test_deterministic_per_seed(self):
        spec = builtin("ef5")
        a = pair_kernel(spec, (0.1, 0.2), (0.9, -0.3), "shots", shots=2000, seed=7)
        b = pair_kernel(spec, (0.1, 0.2), (0.9, -0.3), "shots", shots=2000, seed=7)
        assert a == b

    def test_shots_zero_rejected(self):
        with pytest.raises(ValueError):
            pair_kernel(builtin("ef1"), (0, 0), (1, 1), "shots", shots=0, seed=0)

    def test_shots_beyond_c_long_rejected(self):
        # the sampler takes its count as a C long: 2**63 - 1 runs, 2**63 is refused
        with pytest.raises(ValueError, match=r"shots must lie in \[1, 2\*\*63 - 1\], "
                                             r"got 9223372036854775808"):
            pair_kernel(builtin("ef1"), (0, 0), (1, 1), "shots", shots=2 ** 63, seed=0)
        assert 0.0 <= pair_kernel(builtin("ef1"), (0, 0), (1, 1), "shots",
                                  shots=2 ** 63 - 1, seed=0) <= 1.0

    @pytest.mark.parametrize("shots", [2.9, 1000.0, np.float64(1000), "1000", None],
                             ids=["fraction", "whole float", "numpy float", "string", "None"])
    def test_non_integer_shots_rejected(self, shots):
        # 2.9 used to draw Binomial(2, p) and divide by 2.9, and write shots=2.9
        with pytest.raises(ValueError, match=re.escape(
                f"shots must be an integer, got {shots!r}")):
            gram(builtin("ef1"), [(0, 0), (1, 1)], method="shots", shots=shots)

    def test_numpy_integer_shots_accepted(self):
        pts = [(0.1, 0.2), (0.9, -0.3), (-0.4, 0.5)]
        got = gram(builtin("ef1"), pts, method="shots", shots=np.int64(300), seed=2)
        want = gram(builtin("ef1"), pts, method="shots", shots=300, seed=2)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.shots == 300 and type(got.shots) is int

    def test_overlap_rounded_below_zero_samples_zero(self):
        # this pair's exact overlap rounds to about -3.6e-19, which the sampler refused
        # as "p < 0, p > 1 or p contains NaNs" while the clip was from above only
        pts = [(0.3, -0.2), (-0.70833995, -3.03001816)]
        assert abs(gram(builtin("ef1"), pts).values[0, 1]) < 1e-15
        k = gram(builtin("ef1"), pts, method="shots", shots=1000, seed=0)
        assert k.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("n", [2, 50, 300])
    @pytest.mark.parametrize("eid", BUILTIN_IDS)
    def test_in_range_overlaps_sample_as_before(self, eid, n):
        # the clip from below moves no entry in [0, 1]: the earlier sampler's bytes
        for seed in range(3):
            pts = np.random.default_rng(seed).uniform(-1, 1, (n, 2))
            got = gram(builtin(eid), pts, method="shots", shots=1000, seed=seed).values
            assert got.tobytes() == earlier_shot_gram(builtin(eid), pts, 1000, seed).tobytes()


def earlier_shot_gram(spec, points, shots, seed):
    """The shot route before its clip from below, verbatim on the exact route's product."""
    k = gram(spec, points).values.copy()
    np.minimum(k, 1.0, out=k)
    for i in range(len(k) - 1):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        k[i, i + 1:] = k[i + 1:, i] = rng.binomial(shots, k[i, i + 1:]) / shots
    return k


class TestGram:
    @pytest.mark.parametrize("method", ["exact", "pauli", "shots"])
    @pytest.mark.parametrize("points", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_no_points_rejected(self, method, points):
        with pytest.raises(ValueError, match="^at least one point required$"):
            gram(builtin("ef1"), points, method=method)

    def test_single_point(self):
        g = gram(builtin("ef1"), [(0.2, 0.3)])
        assert g.values.shape == (1, 1)
        assert abs(g.values[0, 0] - 1.0) < 1e-10

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(9)
        # 257 points also cross the BLAS block boundaries of the A A^T product
        point_sets = [[(0.1, 0.2), (-0.5, 0.8), (0.9, -0.9)]]
        point_sets += [rng.uniform(-1, 1, (n, 2)) for n in (1, 3, 257)]
        for pts in point_sets:
            for method in ("exact", "pauli"):
                g = gram(builtin("ef2"), pts, method=method)
                assert np.array_equal(g.values, g.values.T)
                assert np.max(np.abs(np.diag(g.values) - 1.0)) < 1e-10

    def test_psd_on_random_points(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, (20, 2))
        g = gram(builtin("ef3"), pts)
        assert np.linalg.eigvalsh(g.values)[0] >= -1e-8

    def test_shot_matrix_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, (6, 2))
        g = gram(builtin("ef1"), pts, method="shots", shots=200, seed=11)
        assert np.array_equal(g.values, g.values.T)
        assert np.all(np.diag(g.values) == 1.0)

    def test_shot_matrix_reproducible(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, (5, 2))
        a = gram(builtin("ef4"), pts, method="shots", shots=300, seed=2)
        b = gram(builtin("ef4"), pts, method="shots", shots=300, seed=2)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind, n, data_seed, eid, shots, seed, duplicates", [
        pytest.param("xor", 12, 2, "ef2", 400, 2, 0,  # the CLI determinism criterion's input
                     id="xor-12-2-ef2-400-2"),
        pytest.param("circle", 20, 3, "ef1", 1000, 5, 0, id="circle-20-3-ef1-1000-5"),
        pytest.param("exp", 16, 4, "ef3", 10_000, 9, 0, id="exp-16-4-ef3-10000-9"),
        # K = 1 off the diagonal: the reference truncates and renormalises to P(00) = 1
        pytest.param("moon", 20, 6, "ef4", 1000, 3, 5, id="moon-20-6-ef4-1000-3-dup5"),
    ])
    def test_shot_matrix_equals_sampled_inversion_test(self, kind, n, data_seed, eid,
                                                       shots, seed, duplicates):
        points = generate(kind, n, data_seed).points
        points = np.concatenate([points, points[:duplicates]])
        got = gram(builtin(eid), points, method="shots", shots=shots, seed=seed)
        want = inversion_test_gram(builtin(eid), points, shots, seed)
        assert got.values.tobytes() == want.tobytes()

    def test_shot_matrix_holds_one_buffer(self):
        # the counts are sampled in the product's own n x n buffer; a clipped copy and
        # a fresh identity beside it peaked at 15.6 MB here
        n = 800
        points = generate("circle", n, 3).points
        tracemalloc.start()
        try:
            gram(builtin("ef1"), points, method="shots", shots=1000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8, f"traced peak {peak / 1e6:.1f} MB"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            gram(builtin("ef1"), [(0, 0)], method="magic")

    def test_gram_from_kernel(self):
        pts = np.array([(0.5, 0.5), (1.0, 0.5)])
        g = GramMatrix(pts @ pts.T + 1.0, "linear")
        assert g.values[0, 1] == g.values[1, 0] == 1.75
        assert g.values[0, 0] == 1.5

    def test_values_are_read_only_and_independent_of_the_caller(self):
        arr = np.eye(3)
        base = np.eye(4)
        view = base[:3, :3]
        view.setflags(write=False)  # read-only, but base can still change it
        kept = [GramMatrix(arr), GramMatrix(view)]
        arr[0, 1] = base[0, 1] = 5.0
        for g in kept:
            assert g.values[0, 1] == 0.0
            assert not g.values.flags.writeable
        for method in ("exact", "pauli", "shots"):
            g = gram(builtin("ef1"), [(0, 0), (0.3, 0.4)], method=method, shots=100)
            assert not g.values.flags.writeable

    def test_csv_header(self, tmp_path):
        g = gram(builtin("ef1"), [(0, 0), (0.3, 0.4)], method="shots",
                 shots=100, seed=5)
        path = tmp_path / "g.csv"
        g.to_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == "# method=shots size=2 shots=100 seed=5"


class TestCombine:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.pts = rng.uniform(-1, 1, (10, 2))
        self.g1 = gram(builtin("ef1"), self.pts)
        self.g3 = gram(builtin("ef3"), self.pts)

    def test_degenerate_weight(self):
        c = combine([self.g1, self.g3], (2.0, 0.0))
        assert np.max(np.abs(c.values - 2.0 * self.g1.values)) < 1e-12

    def test_equal_weights_diagonal(self):
        c = combine([self.g1, self.g3], [1, 1])
        assert c.weights == (1.0, 1.0)
        assert np.max(np.abs(np.diag(c.values) - 2.0)) < 1e-9

    def test_psd_closure(self):
        c = combine([self.g1, self.g3], (1.5, 0.5))
        assert np.linalg.eigvalsh(c.values)[0] >= -1e-8

    def test_size_mismatch(self):
        small = gram(builtin("ef1"), self.pts[:4])
        with pytest.raises(ValueError):
            combine([self.g1, small], (1.0, 1.0))

    def test_weight_validation(self):
        grams = [self.g1, self.g3]
        with pytest.raises(ValueError, match="must sum to 2"):
            combine(grams, (1.0, 0.5))
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\]"):
            combine(grams, (-0.5, 2.5))
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\]"):
            combine(grams, (float("nan"), 1.0))
        with pytest.raises(ValueError, match="2 matrices but 0 weights"):
            combine(grams, ())
        with pytest.raises(ValueError, match="at least one Gram matrix"):
            combine([], [])

    def test_weight_count_checked_against_matrices(self):
        with pytest.raises(ValueError, match="1 matrices but 2 weights"):
            combine([self.g1], (5.0, 7.0))

    def test_combined_range(self):
        c = combine([self.g1, self.g3], (1.0, 1.0))
        assert c.values.min() >= -1e-9
        assert c.values.max() <= 2.0 + 1e-9

    def test_plain_arrays_combine_as_gram_matrices(self):
        want = combine([self.g1, self.g3], (1.5, 0.5))
        for grams in ([self.g1.values, self.g3.values], [self.g1, self.g3.values.tolist()]):
            got = combine(grams, (1.5, 0.5))
            assert got.values.tobytes() == want.values.tobytes()
            assert (got.method, got.weights) == (want.method, want.weights)
        with pytest.raises(ValueError, match=re.escape("must be square, got (10, 9)")):
            combine([self.g1, self.g3.values[:, :9]], (1.0, 1.0))

    def test_sum_is_wrapped_without_a_copy(self):
        # the fresh sum goes to GramMatrix read-only, so __post_init__ keeps it
        with mock.patch.object(kernels, "GramMatrix", wraps=kernels.GramMatrix) as wraps:
            c = combine([self.g1, self.g3], (1.5, 0.5))
        [(args, _)] = wraps.call_args_list
        assert not args[0].flags.writeable and args[0].flags.owndata
        assert c.values is args[0]
        assert c.values.tobytes() == (1.5 * self.g1.values + 0.5 * self.g3.values).tobytes()
