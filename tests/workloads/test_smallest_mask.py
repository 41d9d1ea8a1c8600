"""The samplers' shared "k smallest scores" selector, and the budget under ties.

``_smallest_mask`` must mark exactly ``counts[i]`` cells of row ``i``: the
``counts[i]`` smallest scores, equal scores resolved to the lowest column.
The oracle is a stable row ``argsort`` scattered back through ``arange <
counts`` — the selection the samplers made before the partition-based
selector replaced it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.params import ProtocolParams
from repro.core.vectorized import validate_states
from repro.workloads.generators import (
    _SELECT_ROWS,
    BoundedChangePopulation,
    ChurnPopulation,
    ItemChangePopulation,
    TrendPopulation,
    _smallest_mask,
)


def _oracle(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    order = scores.argsort(axis=1, kind="stable")
    mask = np.zeros(scores.shape, dtype=bool)
    ranks = np.arange(scores.shape[1])[np.newaxis, :] < counts[:, np.newaxis]
    np.put_along_axis(mask, order, ranks, axis=1)
    return mask


def _check(scores: np.ndarray, counts: np.ndarray) -> None:
    mask = _smallest_mask(scores, counts)
    assert mask.shape == scores.shape and mask.dtype == np.bool_
    np.testing.assert_array_equal(mask.sum(axis=1), counts)
    np.testing.assert_array_equal(mask, _oracle(scores, counts))


#: Few distinct values, infinities included, so most rows hold exact ties.
_COARSE = st.sampled_from([-np.inf, 0.0, 0.125, 0.5, 0.5000000000000001, 1.0, np.inf])
_FINE = st.floats(min_value=0.0, max_value=1.0, allow_nan=False) | st.just(np.inf)


@st.composite
def _scores_and_counts(draw):
    n = draw(st.integers(1, 12))
    width = draw(st.integers(0, 24))
    elements = draw(st.sampled_from([_COARSE, _FINE]))
    scores = draw(hnp.arrays(np.float64, (n, width), elements=elements))
    counts = draw(hnp.arrays(np.int64, n, elements=st.integers(0, width)))
    return scores, counts


@settings(max_examples=300, deadline=None)
@given(_scores_and_counts())
def test_matches_stable_argsort_oracle(case):
    _check(*case)


@pytest.mark.parametrize("width", [1, 7, 64])
def test_zero_and_full_counts(width):
    scores = np.random.default_rng(width).random((6, width))
    scores[1, 0] = np.inf
    counts = np.array([0, width, 0, width, 1, width - 1])
    _check(scores, counts)


def test_wide_rows_any_counts():
    # Wide rows and large counts: partition leaves such a head unordered.
    rng = np.random.default_rng(2)
    scores = rng.random((300, 1024))
    _check(scores, rng.integers(0, 1025, size=300))


def test_zero_width_rows():
    # ItemChangePopulation at d=1 has no period boundaries to switch at.
    mask = _smallest_mask(np.empty((5, 0)), np.zeros(5, dtype=np.int64))
    assert mask.shape == (5, 0)


def test_ties_across_row_slices():
    # More rows than one selection slice, every row full of exact ties.
    rng = np.random.default_rng(3)
    n = 2 * _SELECT_ROWS + 17
    scores = rng.integers(0, 4, size=(n, 32)).astype(np.float64)
    counts = rng.integers(0, 33, size=n)
    _check(scores, counts)


class _CoarseGenerator(np.random.Generator):
    """A generator whose uniform scores take only 8 values: ties are certain."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.floor(super().random(size) * 8.0) / 8.0


def _coarse(seed: int) -> np.random.Generator:
    return _CoarseGenerator(np.random.PCG64(seed))


def _changes(states: np.ndarray) -> np.ndarray:
    return np.count_nonzero(states[:, 1:] != states[:, :-1], axis=1) + (states[:, 0] != 0)


@pytest.mark.parametrize("exact_k", [True, False])
@pytest.mark.parametrize("start_prob", [0.0, 0.5])
def test_bounded_budget_under_ties(exact_k, start_prob):
    d, k, n = 32, 5, 3000
    population = BoundedChangePopulation(d, k, exact_k=exact_k, start_prob=start_prob)
    states = population.sample(n, _coarse(1))
    validate_states(states, ProtocolParams(n=n, d=d, k=k, epsilon=1.0))
    changes = _changes(states)
    if exact_k:
        np.testing.assert_array_equal(changes, k)
    else:
        assert changes.max() == k


def test_item_budget_under_ties():
    d, k, n = 16, 3, 3000
    items = ItemChangePopulation(d, k, domain_size=5, skew=1.0).sample(n, _coarse(2))
    switches = np.count_nonzero(items[:, 1:] != items[:, :-1], axis=1)
    assert switches.max() <= k


def test_churn_budget_under_ties():
    d, k, n = 32, 4, 3000
    states, active = ChurnPopulation(d, k).sample_with_activity(n, _coarse(3))
    validate_states(states, ProtocolParams(n=n, d=d, k=k, epsilon=1.0))
    assert not states[~active].any()


def test_trend_budget_under_ties():
    d, k, n = 32, 3, 3000
    states = TrendPopulation(d, k).sample(n, _coarse(4))
    validate_states(states, ProtocolParams(n=n, d=d, k=k, epsilon=1.0))
