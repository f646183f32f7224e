import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate

from weldqc import complexity, special
from weldqc.bayes import JEFFREYS, BetaParams, CountData, posterior
from weldqc.complexity import (
    HellingerMatrix,
    Merge,
    _hellinger_pairs,
    agglomerative_cluster,
    complexity_scores,
    cut,
    dendrogram_segments,
    distance_matrix,
    hellinger,
    label_clusters,
    leaf_order,
    profile_distance_matrix,
    tree_to_dict,
)
from weldqc.errors import DomainError
from weldqc.render import dendrogram_svg

from refdata import (
    EIGHT_PRODUCT_COUNTS,
    EIGHT_PRODUCT_K2,
    EIGHT_PRODUCT_K4,
    EIGHT_PRODUCT_MATRIX,
    EIGHT_PRODUCT_MEDIANS,
    EIGHT_PRODUCT_SCORES,
)
from test_special import _portfolio_counts


def eight_posteriors():
    return [posterior(CountData(x, n), JEFFREYS) for n, x in EIGHT_PRODUCT_COUNTS]


def random_params(rng):
    return BetaParams(float(rng.uniform(0.5, 300.0)), float(rng.uniform(0.5, 300.0)))


def row_loop_profile(matrix):
    """Profile distances one row at a time, each pair as its own sum of squares."""
    rows = matrix.values
    values = np.empty(rows.shape)
    for i in range(len(rows)):
        values[i, i:] = values[i:, i] = np.sqrt(((rows[i] - rows[i:]) ** 2).sum(axis=1))
    return HellingerMatrix(matrix.labels, values)


def triu_sum_profile(matrix):
    """Profile distances built as before the in-place mirror: np.triu, root, then sq + sq.T."""
    rows = matrix.values
    n = len(rows)
    centered = rows - rows.mean(axis=0)
    norms = np.einsum("ij,ij->i", centered, centered)
    sq = centered @ centered.T
    del centered
    sq *= -2.0
    sq += norms[:, None]
    sq += norms
    tol = 8.0 * n * np.finfo(float).eps * norms
    i, j = np.nonzero(sq <= 2.0 * tol.max(initial=0.0))
    near = (i < j) & (sq[i, j] <= tol[i] + tol[j])
    i, j = i[near], j[near]
    chunk = max(1, n // 4)
    for start in range(0, len(i), chunk):
        a, b = i[start : start + chunk], j[start : start + chunk]
        sq[a, b] = ((rows[a] - rows[b]) ** 2).sum(axis=1)
    sq = np.triu(sq, 1)
    np.sqrt(sq, out=sq)
    return sq + sq.T


def tied_posteriors(n, seed):
    """Posteriors over few distinct counts, so many repeat exactly."""
    rng = np.random.default_rng(seed)
    inspected = rng.choice([150, 200, 300, 2000], n)
    return [posterior(CountData(int(rng.integers(0, 4)), int(m)), JEFFREYS) for m in inspected]


class TestHellinger:
    def test_identical_distributions(self):
        p = BetaParams(5.5, 195.5)
        assert hellinger(p, p) == 0.0

    def test_reference_entries(self):
        assert hellinger(BetaParams(5.5, 195.5), BetaParams(4.5, 166.5)) == pytest.approx(
            0.0602, abs=5e-4
        )
        assert hellinger(BetaParams(2.5, 98.5), BetaParams(2.5, 97.5)) == pytest.approx(
            0.0057, abs=5e-4
        )

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p, q = random_params(rng), random_params(rng)
            assert hellinger(p, q) == hellinger(q, p)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        triples = [[random_params(rng) for _ in range(3)] for _ in range(1000)]
        p, q, r = (np.array([(t[k].a, t[k].b) for t in triples]) for k in range(3))
        direct = _hellinger_pairs(p, r)
        via_q = _hellinger_pairs(np.vstack([p, q]), np.vstack([q, r]))
        assert np.all(direct <= via_q[:1000] + via_q[1000:] + 1e-9)

    def test_closed_form_matches_quadrature(self):
        # oracle: H^2 = 1 - integral of sqrt(f_p * f_q) over (0, 1)
        from weldqc.special import beta_log_pdf

        rng = np.random.default_rng(2)
        for _ in range(100):
            p, q = random_params(rng), random_params(rng)

            def integrand(t):
                return math.exp(0.5 * (beta_log_pdf(t, p.a, p.b) + beta_log_pdf(t, q.a, q.b)))

            coefficient, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
            oracle = math.sqrt(max(1.0 - coefficient, 0.0))
            assert hellinger(p, q) == pytest.approx(oracle, abs=1e-6)

    def test_bounded(self):
        far = hellinger(BetaParams(2.0, 20.0), BetaParams(20.0, 2.0))
        assert 0.9 < far < 1.0
        # essentially disjoint shapes saturate at 1.0 in double precision
        assert hellinger(BetaParams(0.5, 5000.0), BetaParams(5000.0, 0.5)) <= 1.0


def mp_hellinger(p, q):
    """50-digit Hellinger distance between Beta distributions (mpmath oracle)."""
    with mpmath.workdps(50):
        a1, b1, a2, b2 = (mpmath.mpf(v) for v in (p.a, p.b, q.a, q.b))

        def log_b(a, b):
            return mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)

        log_bc = log_b((a1 + a2) / 2, (b1 + b2) / 2) - (log_b(a1, b1) + log_b(a2, b2)) / 2
        return float(mpmath.sqrt(-mpmath.expm1(log_bc)))


def wide_params(rng):
    """Shapes log-uniform on [0.5, 1e9]."""
    a, b = np.exp(rng.uniform(math.log(0.5), math.log(1e9), 2))
    return BetaParams(float(a), float(b))


def near_params(rng, p):
    """p moved by a relative 1e-9..1e-2 or by a few whole counts."""
    if rng.random() < 0.5:
        a, b = np.array([p.a, p.b]) * (1.0 + rng.normal(size=2) * 10.0 ** rng.uniform(-9, -2, 2))
    else:
        a, b = np.array([p.a, p.b]) + rng.integers(-3, 4, size=2)
    return BetaParams(float(max(a, 0.5)), float(max(b, 0.5)))


class TestHellingerKernel:
    def test_matches_mpmath_over_shape_range(self):
        rng = np.random.default_rng(11)
        for k in range(300):
            p = wide_params(rng)
            q = wide_params(rng) if k % 2 else near_params(rng, p)
            expected = mp_hellinger(p, q)
            got = hellinger(p, q)
            assert abs(got - expected) <= 1e-5 * expected + 2e-9, (p, q, got, expected)
            if expected >= 1e-7:
                assert got > 0.0, (p, q, expected)

    @pytest.mark.parametrize(
        "p,q",
        [
            (BetaParams(5e7, 1e9), BetaParams(5e7 + 10, 1e9)),
            (BetaParams(1e6, 1e6), BetaParams(1e6 + 1, 1e6)),
            (BetaParams(1e9, 1e9), BetaParams(1e9 + 1, 1e9)),
            (BetaParams(0.5, 1e9 + 0.5), BetaParams(1.5, 1e9 - 0.5)),
            (BetaParams(0.5, 1e9), BetaParams(1e9, 0.5)),
        ],
    )
    def test_large_shapes_match_mpmath(self, p, q):
        # subtracting lgamma values near 2e10 returned 0 or lost digits here
        expected = mp_hellinger(p, q)
        assert hellinger(p, q) == pytest.approx(expected, rel=1e-9, abs=0)

    def test_shape_sums_that_round(self):
        # a1 + b1 is rounded at these shapes; the sums' half-difference must
        # come from (a1 - a2)/2 + (b1 - b2)/2 to keep H to 1e-9
        rng = np.random.default_rng(15)
        for _ in range(200):
            a, b = np.exp(rng.uniform(math.log(1e3), math.log(1e9), 2))
            da, db = rng.integers(-3, 4, size=2) / 3.0
            p, q = BetaParams(float(a), float(b)), BetaParams(float(a + da), float(b + db))
            expected = mp_hellinger(p, q)
            if expected >= 1e-7:
                assert hellinger(p, q) == pytest.approx(expected, rel=1e-9, abs=0), (p, q)

    def test_integer_counts_relative_error(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(400):
            n1 = int(rng.integers(1, 100_001))
            x1 = int(rng.integers(0, n1 + 1))
            # half the second products sit a few counts from the first
            if rng.random() < 0.5:
                n2 = max(n1 + int(rng.integers(-50, 51)), 1)
                x2 = min(max(x1 + int(rng.integers(-5, 6)), 0), n2)
            else:
                n2 = int(rng.integers(1, 100_001))
                x2 = int(rng.integers(0, n2 + 1))
            p = posterior(CountData(x1, n1), JEFFREYS)
            q = posterior(CountData(x2, n2), JEFFREYS)
            expected = mp_hellinger(p, q)
            if expected < 1e-3:
                continue
            checked += 1
            assert hellinger(p, q) == pytest.approx(expected, rel=1e-10, abs=0), (p, q)
        assert checked > 200

    @pytest.mark.parametrize("shape", [(0.5, 0.5), (2.5, 98.5), (12.0, 3.0), (5e7, 1e9)])
    def test_identical_shapes_give_positive_zero(self, shape):
        p = BetaParams(*shape)
        assert math.copysign(1.0, hellinger(p, p)) == 1.0
        values = distance_matrix([p, p, BetaParams(1.0, 1.0)]).values
        assert math.copysign(1.0, values[0, 1]) == math.copysign(1.0, values[1, 0]) == 1.0

    def test_scores_are_cumulative_matrix_entries(self):
        rng = np.random.default_rng(13)
        posteriors = [wide_params(rng) for _ in range(30)]
        posteriors += [near_params(rng, p) for p in posteriors[:10]]
        values = distance_matrix(posteriors).values
        order = sorted(
            range(len(posteriors)),
            key=lambda i: (posteriors[i].median, posteriors[i].variance, i),
        )
        expected = {order[0]: 0.0}
        total = 0.0
        for previous, current in zip(order, order[1:]):
            total += values[current, previous]
            expected[current] = total
        for score in complexity_scores(posteriors):
            assert score.raw == expected[score.index]

    def test_distance_matrix_memory_is_quadratic(self):
        n = 1000
        rng = np.random.default_rng(14)
        posteriors = [random_params(rng) for _ in range(n)]
        tracemalloc.start()
        try:
            distance_matrix(posteriors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the n x n result is n**2 * 8 bytes; the pair temporaries stay bounded
        assert peak < 3 * n * n * 8


class TestDistanceMatrix:
    def test_reference_matrix(self):
        matrix = distance_matrix(eight_posteriors())
        np.testing.assert_allclose(matrix.values, EIGHT_PRODUCT_MATRIX, atol=5e-4)

    def test_invariants(self):
        matrix = distance_matrix(eight_posteriors())
        assert np.all(np.diag(matrix.values) == 0.0)
        np.testing.assert_array_equal(matrix.values, matrix.values.T)

    def test_single_product(self):
        matrix = distance_matrix([BetaParams(2.5, 98.5)])
        assert matrix.values.shape == (1, 1) and matrix.values[0, 0] == 0.0

    def test_duplicate_product(self):
        p = BetaParams(2.5, 98.5)
        matrix = distance_matrix([p, p])
        assert matrix.values[0, 1] == 0.0

    def test_profile_matrix_is_a_distance_matrix(self):
        matrix = profile_distance_matrix(distance_matrix(eight_posteriors()))
        assert np.all(np.diag(matrix.values) == 0.0)
        np.testing.assert_array_equal(matrix.values, matrix.values.T)

    def test_entries_equal_pairwise_hellinger_exactly(self):
        rng = np.random.default_rng(7)
        posteriors = [random_params(rng) for _ in range(25)]
        values = distance_matrix(posteriors).values
        for i, p in enumerate(posteriors):
            for j, q in enumerate(posteriors):
                if i != j:
                    assert values[i, j] == hellinger(p, q)

    @pytest.mark.parametrize("chunk_pairs", [complexity._CHUNK_PAIRS, 64])
    def test_small_shapes_anywhere_give_pairwise_hellinger_bit_for_bit(
        self, monkeypatch, chunk_pairs
    ):
        # 64 pairs a chunk splits the 24 products into twelve row chunks
        monkeypatch.setattr(complexity, "_CHUNK_PAIRS", chunk_pairs)
        rng = np.random.default_rng(29)
        large = [BetaParams(float(a), float(b)) for a, b in rng.uniform(10.5, 300.0, (14, 2))]
        tiny, a_small, b_small, ten = (
            BetaParams(0.5, 3.5), BetaParams(3.5, 250.0), BetaParams(400.0, 2.5),
            BetaParams(10.0, 120.5),
        )
        # below 10: a, b and a + b; exactly 10; duplicates; first, last and between
        posteriors = (
            [tiny, large[0], ten, *large[1:5], a_small, *large[5:9], tiny, BetaParams(12.0, 10.0)]
            + [*large[9:], ten, b_small]
        )
        n = len(posteriors)
        values = distance_matrix(posteriors).values
        assert not np.signbit(values).any()
        for i, p in enumerate(posteriors):
            for j, q in enumerate(posteriors):
                assert values[i, j] == (hellinger(p, q) if i != j else 0.0), (i, j)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(n)
            permuted = distance_matrix([posteriors[k] for k in order]).values
            assert np.array_equal(permuted, values[np.ix_(order, order)])
            assert np.array_equal(np.signbit(permuted), np.signbit(values[np.ix_(order, order)]))

    def test_shifts_run_only_in_the_chunks_that_need_them(self, monkeypatch):
        calls = []
        log_ends = special._log_ends

        def counting(*args):
            calls.append(args)
            return log_ends(*args)

        posteriors = [posterior(CountData(failed, n)) for failed, n in _portfolio_counts(101)]
        monkeypatch.setattr(special, "_log_ends", counting)
        distance_matrix(posteriors)
        # products ordered by smaller shape: 80 calls; in input order every chunk shifts, 251
        assert len(calls) <= 100


class TestProfileMatrix:
    def test_within_rounding_bound_of_broadcast_formula(self):
        rng = np.random.default_rng(8)
        n = 50
        matrix = distance_matrix([random_params(rng) for _ in range(n)])
        rows = matrix.values
        expected = np.sqrt(((rows[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2))
        values = profile_distance_matrix(matrix).values
        centered = rows - rows.mean(axis=0)
        norms = (centered**2).sum(axis=1)
        bound = 8 * n * np.finfo(float).eps * (norms[:, None] + norms)
        assert np.all(np.abs(values**2 - expected**2) <= bound)

    def test_duplicate_rows_give_exact_zeros(self):
        posteriors = tied_posteriors(60, 10)
        values = profile_distance_matrix(distance_matrix(posteriors)).values
        same = np.array([[p == q for q in posteriors] for p in posteriors])
        assert np.count_nonzero(same) > 2 * len(posteriors)
        assert np.all(values[same] == 0.0)
        assert np.all(values[~same] > 0.0)

    def test_exactly_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(8)
        posteriors = [random_params(rng) for _ in range(50)] + tied_posteriors(30, 11)
        values = profile_distance_matrix(distance_matrix(posteriors)).values
        assert np.array_equal(values, values.T)
        assert np.all(np.diag(values) == 0.0)

    @pytest.mark.parametrize("seed", [12, 13])
    def test_clusters_as_row_loop_with_ties(self, seed):
        matrix = distance_matrix(tied_posteriors(120, seed))
        expected = agglomerative_cluster(row_loop_profile(matrix))
        tree = agglomerative_cluster(profile_distance_matrix(matrix))
        assert [(m.left, m.right) for m in tree.merges] == [
            (m.left, m.right) for m in expected.merges
        ]
        assert [round(m.height, 6) for m in tree.merges] == [
            round(m.height, 6) for m in expected.merges
        ]
        assert cut(tree, 7) == cut(expected, 7)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 200])
    @pytest.mark.parametrize("tied", [False, True])
    def test_bit_identical_to_triu_sum(self, n, tied):
        rng = np.random.default_rng(n)
        posteriors = (
            tied_posteriors(n, n) if tied else [random_params(rng) for _ in range(n)]
        )
        matrix = distance_matrix(posteriors)
        values = profile_distance_matrix(matrix).values
        expected = triu_sum_profile(matrix)
        assert values.tobytes() == expected.tobytes()

    def test_peak_is_one_matrix_below_triu_sum(self):
        n = 800
        rng = np.random.default_rng(15)
        values = np.triu(rng.random((n, n)), 1)
        matrix = HellingerMatrix(tuple(map(str, range(n))), values + values.T)
        peaks = []
        for build in (profile_distance_matrix, triu_sum_profile):
            tracemalloc.start()
            try:
                build(matrix)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the Gram step holds the centred rows and the result (2 n x n); the
        # np.triu copy and sq + sq.T added an n x n array and np.triu's mask
        assert peaks[0] < 2.05 * n * n * 8 < peaks[1]

    def test_memory_is_quadratic(self):
        n = 300
        rng = np.random.default_rng(9)
        values = np.triu(rng.random((n, n)), 1)
        matrix = HellingerMatrix(tuple(map(str, range(n))), values + values.T)
        tracemalloc.start()
        try:
            profile_distance_matrix(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the n x n x n difference tensor alone would need n**3 * 8 bytes
        assert peak < 4 * n * n * 8


def score_order(posteriors):
    """Indices by ascending raw score, ties in input order: the walk order of the scores."""
    scores = complexity_scores(posteriors)
    return sorted(range(len(scores)), key=lambda i: (scores[i].raw, i))


class TestOrderingAndScores:
    def test_reference_order(self):
        medians = [p.median for p in eight_posteriors()]
        np.testing.assert_allclose(medians, EIGHT_PRODUCT_MEDIANS, atol=5e-4)
        order = score_order(eight_posteriors())
        assert [i + 1 for i in order] == [5, 6, 2, 1, 8, 7, 3, 4]

    def test_single_product(self):
        assert score_order([BetaParams(2.5, 98.5)]) == [0]

    def test_identical_products_keep_input_order(self):
        p = BetaParams(2.5, 98.5)
        assert [s.raw for s in complexity_scores([p, p, p])] == [0.0, 0.0, 0.0]
        assert score_order([p, p, p]) == [0, 1, 2]

    def test_median_tie_broken_by_variance(self):
        narrow = BetaParams(50.0, 50.0)
        wide = BetaParams(2.0, 2.0)  # same median 0.5, more spread
        assert score_order([wide, narrow]) == [1, 0]

    def test_reference_scores(self):
        scores = complexity_scores(eight_posteriors())
        for score in scores:
            expected = EIGHT_PRODUCT_SCORES[score.index + 1]
            assert score.scaled == pytest.approx(expected, abs=0.1)

    def test_score_endpoints(self):
        scores = complexity_scores(eight_posteriors())
        assert min(s.scaled for s in scores) == 0.0
        assert max(s.scaled for s in scores) == 10.0

    def test_single_product_scores_zero(self):
        (score,) = complexity_scores([BetaParams(2.5, 98.5)])
        assert score.raw == score.scaled == 0.0

    def test_two_products_hit_both_endpoints(self):
        scores = complexity_scores([BetaParams(2.5, 98.5), BetaParams(4.5, 94.5)])
        assert sorted(s.scaled for s in scores) == [0.0, 10.0]

    def test_order_invariant_under_permutation(self):
        posteriors = eight_posteriors()
        scores = {s.index: s.scaled for s in complexity_scores(posteriors)}
        rng = np.random.default_rng(4)
        perm = rng.permutation(len(posteriors))
        permuted = [posteriors[i] for i in perm]
        for s in complexity_scores(permuted):
            assert s.scaled == pytest.approx(scores[perm[s.index]], abs=1e-12)


class TestClustering:
    def test_reference_partition_k4(self):
        tree = agglomerative_cluster(distance_matrix(eight_posteriors()))
        partition = _partition(cut(tree, 4))
        assert partition == EIGHT_PRODUCT_K4

    def test_reference_partition_k2(self):
        tree = agglomerative_cluster(distance_matrix(eight_posteriors()))
        assert _partition(cut(tree, 2)) == EIGHT_PRODUCT_K2

    def test_extreme_cuts(self):
        tree = agglomerative_cluster(distance_matrix(eight_posteriors()))
        assert len(set(cut(tree, 1))) == 1
        assert len(set(cut(tree, 8))) == 8

    def test_cut_bounds(self):
        tree = agglomerative_cluster(distance_matrix(eight_posteriors()))
        for bad in (0, 9):
            with pytest.raises(DomainError):
                cut(tree, bad)

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(5)
        posteriors = [random_params(rng) for _ in range(12)]
        tree = agglomerative_cluster(distance_matrix(posteriors))
        heights = [m.height for m in tree.merges]
        assert all(heights[i] <= heights[i + 1] + 1e-15 for i in range(len(heights) - 1))

    def test_cut_always_partitions(self):
        rng = np.random.default_rng(6)
        posteriors = [random_params(rng) for _ in range(9)]
        tree = agglomerative_cluster(distance_matrix(posteriors))
        for k in range(1, 10):
            assignment = cut(tree, k)
            assert len(set(assignment)) == k
            assert len(assignment) == 9

    def test_deterministic_across_runs(self):
        posteriors = eight_posteriors()
        first = agglomerative_cluster(distance_matrix(posteriors))
        second = agglomerative_cluster(distance_matrix(posteriors))
        assert first == second

    def test_tie_break_is_lexicographic(self):
        # equilateral triangle: first merge must join leaves 0 and 1
        values = np.array([[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]])
        tree = agglomerative_cluster(HellingerMatrix(("a", "b", "c"), values))
        assert (tree.merges[0].left, tree.merges[0].right) == (0, 1)

    def test_matches_reference_loop_on_tied_matrices(self):
        # small integer distances tie often, between leaves and merged clusters
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(2, 41))
            values = np.triu(rng.integers(0, 5, size=(n, n)).astype(float), 1)
            matrix = HellingerMatrix(tuple(map(str, range(n))), values + values.T)
            assert agglomerative_cluster(matrix).merges == _reference_linkage(matrix)

    def test_matches_brute_force_on_tied_matrices(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            n = int(rng.integers(2, 15))
            values = np.triu(rng.integers(0, 4, size=(n, n)).astype(float), 1)
            matrix = HellingerMatrix(tuple(map(str, range(n))), values + values.T)
            assert agglomerative_cluster(matrix).merges == _brute_force_linkage(matrix)

    def test_three_clusters_tied_at_one_height(self):
        # {2, 5} becomes cluster 6 and {0, 4} cluster 7; then clusters 7, 6 and
        # leaf 3 are all 0.5 apart, and the smallest id pair (3, 6) merges first
        values = np.full((6, 6), 0.5)
        values[1, :] = values[:, 1] = 0.9
        values[2, 5] = values[5, 2] = 0.1
        values[0, 4] = values[4, 0] = 0.2
        np.fill_diagonal(values, 0.0)
        matrix = HellingerMatrix(tuple("abcdef"), values)
        expected = (Merge(2, 5, 0.1), Merge(0, 4, 0.2), Merge(3, 6, 0.5), Merge(7, 8, 0.5),
                    Merge(1, 9, 0.9))
        assert _brute_force_linkage(matrix) == expected
        assert agglomerative_cluster(matrix).merges == expected

    @pytest.mark.parametrize("n", [35, 200, 400])
    def test_heights_match_scipy(self, n):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        distance = pytest.importorskip("scipy.spatial.distance")
        rng = np.random.default_rng(n)
        values = np.triu(rng.random((n, n)), 1)
        values = values + values.T
        tree = agglomerative_cluster(HellingerMatrix(tuple(map(str, range(n))), values))
        expected = hierarchy.linkage(distance.squareform(values), "complete")[:, 2]
        assert np.array_equal([m.height for m in tree.merges], expected)

    def test_rejects_non_finite_distances(self):
        values = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(DomainError):
            agglomerative_cluster(HellingerMatrix(("a", "b"), values))


def _reference_linkage(matrix):
    """Scalar dict-based complete linkage: the reference for the tie-break."""
    n = matrix.size
    dist = matrix.values
    members = {i: frozenset([i]) for i in range(n)}
    cluster_dist = {(i, j): float(dist[i, j]) for i in range(n) for j in range(i + 1, n)}
    merges = []
    next_id = n
    while len(members) > 1:
        (left, right), height = min(cluster_dist.items(), key=lambda item: (item[1], item[0]))
        merged = members[left] | members[right]
        for other in members:
            if other in (left, right):
                continue
            d = max(
                cluster_dist[(min(left, other), max(left, other))],
                cluster_dist[(min(right, other), max(right, other))],
            )
            cluster_dist[(min(other, next_id), max(other, next_id))] = d
        for pair in [k for k in cluster_dist if left in k or right in k]:
            del cluster_dist[pair]
        del members[left], members[right]
        members[next_id] = merged
        merges.append(Merge(left=left, right=right, height=height))
        next_id += 1
    return tuple(merges)


def _brute_force_linkage(matrix):
    """Complete linkage by rescanning every cluster pair's member pairs at each
    merge, O(n^3) in all: the smallest (height, low id, high id) merges, and
    merge k creates cluster n + k.  Unlike `_reference_linkage` it takes no
    Lance-Williams update, so it checks that update as well as the tie rule."""
    n = matrix.size
    dist = matrix.values.tolist()
    clusters = {i: (i,) for i in range(n)}
    merges = []
    for step in range(n - 1):
        height, left, right = min(
            (max(dist[i][j] for i in clusters[low] for j in clusters[high]), low, high)
            for low in clusters for high in clusters if low < high
        )
        clusters[n + step] = clusters.pop(left) + clusters.pop(right)
        merges.append(Merge(left=left, right=right, height=height))
    return tuple(merges)


def _partition(assignment):
    clusters = {}
    for index, cluster_id in enumerate(assignment):
        clusters.setdefault(cluster_id, set()).add(index + 1)
    return sorted(clusters.values(), key=min)


class TestLabels:
    def test_ordering_by_mean_score(self):
        posteriors = eight_posteriors()
        scores = complexity_scores(posteriors)
        tree = agglomerative_cluster(distance_matrix(posteriors))
        labels = label_clusters(cut(tree, 4), scores)
        assert [l.letter for l in labels] == ["A", "B", "C", "D"]
        assert labels[0].mean_score > labels[-1].mean_score
        assert set(labels[0].members) == {2, 3}  # products 3+4 are most complex

    def test_single_cluster(self):
        scores = complexity_scores([BetaParams(2.5, 98.5)])
        (label,) = label_clusters([0], scores)
        assert label.letter == "A"

    def test_share_of_totals(self):
        posteriors = eight_posteriors()
        scores = complexity_scores(posteriors)
        totals = [n for n, _ in EIGHT_PRODUCT_COUNTS]
        labels = label_clusters(cut(agglomerative_cluster(distance_matrix(posteriors)), 4), scores, totals)
        assert sum(l.share for l in labels) == pytest.approx(1.0)
        for label in labels:
            assert label.total_welds == sum(totals[i] for i in label.members)

    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            label_clusters([0, 1], complexity_scores([BetaParams(2.5, 98.5)]))


class TestExports:
    def test_tree_json_shape(self):
        tree = agglomerative_cluster(distance_matrix(eight_posteriors()))
        document = tree_to_dict(tree)
        assert len(document["merges"]) == 7
        assert {"left", "right", "height"} == set(document["merges"][0])

    def test_segments_cover_all_merges(self):
        tree = agglomerative_cluster(distance_matrix(eight_posteriors()))
        segments = dendrogram_segments(tree, leaf_order(tree))
        assert len(segments) == 3 * len(tree.merges)
        assert sorted(leaf_order(tree)) == list(range(8))

    def test_deep_chained_tree(self):
        # d(i, j) = max(i, j) merges one leaf at a time: a tree 1,099 levels deep
        n = 1100
        index = np.arange(n)
        values = np.maximum.outer(index, index).astype(float)
        np.fill_diagonal(values, 0.0)
        tree = agglomerative_cluster(HellingerMatrix(tuple(map(str, index)), values))
        assert tree.merges[0] == Merge(left=0, right=1, height=1.0)
        assert tree.merges[-1] == Merge(left=n - 1, right=2 * n - 3, height=float(n - 1))
        # each merge puts the new leaf (the smaller id) left of the chain
        assert leaf_order(tree) == list(range(n - 1, 1, -1)) + [0, 1]
        assert len(dendrogram_segments(tree, leaf_order(tree))) == 3 * (n - 1)
        assert dendrogram_svg(tree).count("<line") == 3 * (n - 1)
