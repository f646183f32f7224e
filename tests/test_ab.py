import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldqc.ab import exact_matrix, pairwise_matrix, prob_greater
from weldqc.bayes import JEFFREYS, CountData
from weldqc.errors import DomainError
from weldqc.mcmc import (
    Chain,
    ChainConfig,
    acf,
    empirical_five_number,
    empirical_interval,
    sample_posterior,
)

from refdata import AB_OPERATOR_A, AB_OPERATOR_B, AB_PROB_A_GREATER


def chain_for(inspected, repaired, seed):
    return sample_posterior(
        CountData(repaired, inspected), JEFFREYS, ChainConfig(seed=seed)
    )


class TestProbGreater:
    def test_self_comparison_is_even(self):
        chain = chain_for(25, 5, seed=0)
        result = prob_greater(chain, chain, n=100_000, seed=1)
        assert result.prob_a_greater == pytest.approx(0.5, abs=0.01)

    def test_operator_example(self):
        a = chain_for(AB_OPERATOR_A[0], AB_OPERATOR_A[1], seed=0)
        b = chain_for(AB_OPERATOR_B[0], AB_OPERATOR_B[1], seed=1)
        result = prob_greater(a, b, n=100_000, seed=2)
        assert result.prob_a_greater == pytest.approx(AB_PROB_A_GREATER, abs=0.01)

    def test_disjoint_supports(self):
        result = prob_greater([0.8, 0.9], [0.1, 0.2], n=1000, seed=0)
        assert result.prob_a_greater == 1.0

    def test_deterministic(self):
        a = chain_for(50, 10, seed=3)
        b = chain_for(60, 5, seed=4)
        first = prob_greater(a, b, n=10_000, seed=7)
        second = prob_greater(a, b, n=10_000, seed=7)
        assert first == second

    def test_complementarity(self):
        a = chain_for(180, 25, seed=5)
        b = chain_for(140, 10, seed=6)
        forward = prob_greater(a, b, n=100_000, seed=8).prob_a_greater
        backward = prob_greater(b, a, n=100_000, seed=9).prob_a_greater
        assert forward + backward == pytest.approx(1.0, abs=0.02)

    def test_upward_shift_is_monotone(self):
        rng = np.random.default_rng(10)
        a = rng.beta(5.5, 50.5, 5000)
        b = rng.beta(5.5, 50.5, 5000)
        base = prob_greater(a, b, n=50_000, seed=11).prob_a_greater
        shifted = prob_greater(a + 0.02, b, n=50_000, seed=11).prob_a_greater
        assert shifted >= base

    def test_empty_draws_rejected(self):
        with pytest.raises(DomainError):
            prob_greater([], [0.5], n=10, seed=0)
        with pytest.raises(DomainError):
            prob_greater([0.5], [0.4], n=0, seed=0)
        for n in (2.5, True, float("nan")):
            with pytest.raises(DomainError, match=f"^n must be an integer, got {n!r}$"):
                prob_greater([0.5], [0.4], n=n, seed=0)


class TestPairwiseMatrix:
    def test_diagonal_is_half(self):
        chains = [chain_for(100, k, seed=k) for k in (5, 10, 15)]
        matrix = pairwise_matrix(chains, n=10_000, seed=0)
        assert np.all(np.diag(matrix) == 0.5)

    def test_single_chain(self):
        matrix = pairwise_matrix([chain_for(50, 5, seed=0)], n=1000, seed=0)
        assert matrix.shape == (1, 1) and matrix[0, 0] == 0.5

    def test_complementarity_offdiagonal(self):
        chains = [chain_for(120, k, seed=20 + k) for k in (4, 9, 14)]
        matrix = pairwise_matrix(chains, n=50_000, seed=1)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert matrix[i, j] + matrix[j, i] == pytest.approx(1.0, abs=0.02)

    def test_sorted_chains_fill_triangle(self):
        # entry (i, j) = P(FN_i > FN_j); with rows sorted worst-first every
        # cell where i precedes j must be >= ~0.5 (the published tables show
        # the same property in transposed "column > row" layout)
        counts = [(175, 25), (207, 16), (175, 9), (355, 11)]
        chains = [chain_for(n, x, seed=30 + i) for i, (n, x) in enumerate(counts)]
        chains.sort(key=lambda c: -empirical_five_number(c).median)
        matrix = pairwise_matrix(chains, n=50_000, seed=2)
        for i in range(len(chains)):
            for j in range(i + 1, len(chains)):
                assert matrix[i, j] >= 0.5 - 0.02

    def test_deterministic(self):
        chains = [chain_for(90, k, seed=40 + k) for k in (3, 6)]
        first = pairwise_matrix(chains, n=20_000, seed=3)
        second = pairwise_matrix(chains, n=20_000, seed=3)
        assert np.array_equal(first, second)


def _brute_force_matrix(chains):
    """Mean of x >= y over every pair of draws, by a chains x draws comparison."""
    matrix = np.array([[np.mean(a[:, None] >= b[None, :]) for b in chains] for a in chains])
    np.fill_diagonal(matrix, 0.5)
    return matrix


def _as_chain(values):
    """A Chain whose post-burn-in draws are `values`; its NaN burn-in must be dropped."""
    burn_in = 2
    return Chain(
        draws=np.concatenate([np.full(burn_in, np.nan), values]),
        config=ChainConfig(iterations=len(values) + burn_in, burn_in=burn_in),
        acceptance_rate=0.0,
        counts=CountData(0, 0),
        prior=JEFFREYS,
    )


_WRAPPERS = {"array": np.asarray, "list": list, "chain": _as_chain}


@pytest.fixture()
def tied_chains():
    # unequal lengths, values repeated within a chain and shared across chains
    rng = np.random.default_rng(12)
    grid = np.round(np.linspace(0.01, 0.2, 25), 2)
    chains = [rng.choice(grid, size) for size in (1, 7, 40, 113, 250)]
    chains.append(np.repeat(chains[2][:5], 3))
    return chains


def _spent_chain():
    """A hand-built Chain whose draws end within its burn-in."""
    return Chain(
        draws=np.full(3, 0.5),
        config=ChainConfig(iterations=10, burn_in=3),
        acceptance_rate=0.0,
        counts=CountData(0, 0),
        prior=JEFFREYS,
    )


_READERS = {
    "acf": lambda draws: acf(draws, 0),
    "empirical_interval": empirical_interval,
    "empirical_five_number": empirical_five_number,
    "prob_greater": lambda draws: prob_greater(draws, [0.5], n=10),
    "pairwise_matrix": lambda draws: pairwise_matrix([[0.5], draws], n=10),
    "exact_matrix": lambda draws: exact_matrix([[0.5], draws]),
}

# inputs that are not a 1-D array of finite draws, and the shape each reports
_NOT_DRAWS = {
    "scalar": (0.5, "()"),
    "2-D": (np.ones((2, 3)), "(2, 3)"),
    "nan": ([0.1, np.nan], "(2,)"),
    "+inf": ([0.1, np.inf], "(2,)"),
    "-inf": ([-np.inf, 0.1], "(2,)"),
}


@pytest.mark.parametrize("empty", [[], _spent_chain()], ids=["list", "spent-chain"])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_no_draws_is_one_domain_error(reader, empty):
    with pytest.raises(DomainError, match="^no draws: a chain needs draws after its burn-in$"):
        _READERS[reader](empty)


@pytest.mark.parametrize("case", list(_NOT_DRAWS))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_draws_that_are_not_finite_1d_are_one_domain_error(reader, case):
    draws, shape = _NOT_DRAWS[case]
    message = f"draws must be a 1-D array of finite values, got shape {shape}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _READERS[reader](draws)


class TestExactMatrix:
    def test_equals_brute_force_with_ties(self, tied_chains):
        assert np.array_equal(exact_matrix(tied_chains), _brute_force_matrix(tied_chains))

    def test_complement_is_the_tie_mass(self, tied_chains):
        sizes = np.array([len(c) for c in tied_chains])
        pairs = np.outer(sizes, sizes)
        off = ~np.eye(len(tied_chains), dtype=bool)
        scaled = exact_matrix(tied_chains) * pairs
        counts = np.rint(scaled).astype(int)
        assert np.allclose(scaled[off], counts[off], rtol=0, atol=1e-9)
        ties = np.array([[np.sum(a[:, None] == b[None, :]) for b in tied_chains] for a in tied_chains])
        assert np.array_equal((counts + counts.T - pairs)[off], ties[off])

    def test_resampled_matrix_is_unbiased(self):
        chains = [chain_for(120, k, seed=50 + k) for k in (4, 9, 10, 14)]
        exact = exact_matrix(chains)
        resampled = pairwise_matrix(chains, n=50_000, seed=4)
        standard_error = np.sqrt(exact * (1.0 - exact) / 50_000)
        assert np.all(np.abs(resampled - exact) <= 6.0 * standard_error)

    def test_single_chain(self):
        assert exact_matrix([chain_for(50, 5, seed=0)]).tolist() == [[0.5]]

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
        tied=st.booleans(),
        wrappers=st.lists(st.sampled_from(sorted(_WRAPPERS)), min_size=8, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_brute_force(self, sizes, tied, wrappers, seed):
        # a six-value grid gives ties within and across chains; uniforms give none
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 0.1, 6)
        draws = [rng.choice(grid, n) if tied else rng.random(n) for n in sizes]
        chains = [_WRAPPERS[kind](d) for kind, d in zip(wrappers, draws)]
        assert np.array_equal(exact_matrix(chains), _brute_force_matrix(draws))

    def test_nan_draw_rejected(self):
        with pytest.raises(
            DomainError, match=r"^draws must be a 1-D array of finite values, got shape \(3,\)$"
        ):
            exact_matrix([[0.1, 0.2], [0.3, np.nan, 0.3]])

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            exact_matrix([])
        with pytest.raises(DomainError):
            exact_matrix([[0.1, 0.2], []])

    def test_memory_is_linear_in_total_draws(self):
        rng = np.random.default_rng(14)
        chains = [rng.beta(3.5, 60.5, 10_000) for _ in range(40)]
        total = 40 * 10_000
        tracemalloc.start()
        try:
            exact_matrix(chains)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a chains x draws intermediate alone would take 40 x 8 bytes per draw
        assert peak < 16 * 8 * total
