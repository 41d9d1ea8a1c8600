"""Tests for exact privacy verification — including brute-force cross-checks."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.analysis.privacy import (
    client_report_log_ratio,
    composed_randomizer_log_ratio,
    enumerate_composed_law,
    enumerate_future_rand_report_law,
    sequence_support_patterns,
    support_pattern_log_prob,
)
from repro.analysis.calibration import calibrated_law
from repro.baselines import bun_annulus_law
from repro.core.annulus import AnnulusLaw
from repro.utils.numerics import LOG_ZERO


def _oracle_log_ratio(law: AnnulusLaw, max_support: int | None = None) -> float:
    """The direct max/min over every ``(m, r)`` cell, one suffix sum per cell."""
    top = law.k if max_support is None else max_support
    values = [
        m * math.log(2.0) + support_pattern_log_prob(law, m, r)
        for m in range(top + 1)
        for r in range(m + 1)
    ]
    return max(values) - min(values)


class TestEnumerateComposedLaw:
    def test_sums_to_one(self):
        law = AnnulusLaw.for_future_rand(k=6, epsilon=1.0)
        b = np.ones(6, dtype=np.int8)
        table = enumerate_composed_law(law, b)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)

    def test_ratio_matches_analytic(self):
        law = AnnulusLaw.for_future_rand(k=5, epsilon=1.0)
        b = np.ones(5, dtype=np.int8)
        table = enumerate_composed_law(law, b)
        ratio = math.log(max(table.values()) / min(table.values()))
        assert ratio == pytest.approx(composed_randomizer_log_ratio(law), abs=1e-9)

    def test_wrong_length_rejected(self):
        law = AnnulusLaw.for_future_rand(k=3, epsilon=1.0)
        with pytest.raises(ValueError):
            enumerate_composed_law(law, np.ones(4, dtype=np.int8))


class TestSupportPatternLogProb:
    def test_m_zero_is_total_mass(self):
        law = AnnulusLaw.for_future_rand(k=4, epsilon=1.0)
        assert support_pattern_log_prob(law, 0, 0) == pytest.approx(0.0, abs=1e-9)

    def test_m_k_is_pointwise_law(self):
        law = AnnulusLaw.for_future_rand(k=4, epsilon=1.0)
        for r in range(5):
            assert support_pattern_log_prob(law, 4, r) == pytest.approx(
                law.log_prob_at_distance(r), abs=1e-12
            )

    def test_suffix_sum_identity(self):
        """q(m, r) = q(m+1, r) + q(m+1, r+1): fixing one more free coordinate
        splits its mass between agreeing and disagreeing values."""
        law = AnnulusLaw.for_future_rand(k=6, epsilon=1.0)
        for m in range(6):
            for r in range(m + 1):
                combined = np.logaddexp(
                    support_pattern_log_prob(law, m + 1, r),
                    support_pattern_log_prob(law, m + 1, r + 1),
                )
                assert combined == pytest.approx(
                    support_pattern_log_prob(law, m, r), abs=1e-9
                )

    def test_bad_arguments(self):
        law = AnnulusLaw.for_future_rand(k=3, epsilon=1.0)
        with pytest.raises(ValueError):
            support_pattern_log_prob(law, 4, 0)
        with pytest.raises(ValueError):
            support_pattern_log_prob(law, 2, 3)


class TestReportLawEnumeration:
    def test_sums_to_one(self):
        law = AnnulusLaw.for_future_rand(k=2, epsilon=1.0)
        for v in ([0, 0, 0, 0], [0, 1, 0, 0], [1, 0, -1, 0], [0, -1, 0, 1]):
            table = enumerate_future_rand_report_law(law, np.array(v, dtype=np.int8))
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_input_is_uniform(self):
        law = AnnulusLaw.for_future_rand(k=2, epsilon=1.0)
        table = enumerate_future_rand_report_law(law, np.zeros(3, dtype=np.int8))
        for probability in table.values():
            assert probability == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_support_exceeding_k_rejected(self):
        law = AnnulusLaw.for_future_rand(k=1, epsilon=1.0)
        with pytest.raises(ValueError):
            enumerate_future_rand_report_law(law, np.array([1, -1], dtype=np.int8))


class TestSequenceSupportPatterns:
    def test_count(self):
        """Number of k-sparse sign sequences = sum_j C(L,j) 2^j."""
        patterns = list(sequence_support_patterns(4, 2))
        expected = 1 + 4 * 2 + 6 * 4
        assert len(patterns) == expected

    def test_all_within_sparsity(self):
        for v in sequence_support_patterns(5, 2):
            assert int(np.count_nonzero(v)) <= 2


class TestClientReportRatio:
    def test_matches_brute_force(self):
        """The closed form (Pascal's recurrence over the q(m, r) table, O(k^2))
        equals the exhaustive max over all k-sparse input pairs and outputs —
        the definition of the privacy ratio."""
        law = AnnulusLaw.for_future_rand(k=2, epsilon=1.0)
        length = 4
        laws = {}
        for v in sequence_support_patterns(length, 2):
            laws[tuple(v.tolist())] = enumerate_future_rand_report_law(law, v)
        worst = 0.0
        for (_va, table_a), (_vb, table_b) in itertools.product(laws.items(), repeat=2):
            for word in table_a:
                ratio = math.log(table_a[word] / table_b[word])
                worst = max(worst, ratio)
        assert worst == pytest.approx(client_report_log_ratio(law), abs=1e-9)

    def test_theorem_45_grid(self):
        """Theorem 4.5: the client report is epsilon-LDP."""
        for epsilon in (0.25, 0.5, 1.0):
            for k in (1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 1024):
                law = AnnulusLaw.for_future_rand(k, epsilon)
                assert client_report_log_ratio(law) <= epsilon + 1e-9

    def test_max_support_argument(self):
        law = AnnulusLaw.for_future_rand(k=4, epsilon=1.0)
        restricted = client_report_log_ratio(law, max_support=2)
        full = client_report_log_ratio(law)
        assert restricted <= full + 1e-12
        for top in (-1, 5):
            with pytest.raises(ValueError):
                client_report_log_ratio(law, max_support=top)

    def test_client_ratio_at_least_composed_ratio(self):
        """Support size m=k reproduces the composed randomizer's ratio, so the
        client-level ratio can never be smaller."""
        for k in (2, 4, 8):
            law = AnnulusLaw.for_future_rand(k, 1.0)
            assert (
                client_report_log_ratio(law)
                >= composed_randomizer_log_ratio(law) - 1e-9
            )


_GRID_EPSILONS = (0.25, 0.5, 1.0, 2.0)


class TestRecurrenceMatchesOracle:
    """The recurrence against the direct per-cell suffix sums."""

    @pytest.mark.parametrize("epsilon", _GRID_EPSILONS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_paper_laws(self, k, epsilon):
        law = AnnulusLaw.for_future_rand(k, epsilon)
        assert abs(client_report_log_ratio(law) - _oracle_log_ratio(law)) <= 1e-12

    @pytest.mark.parametrize("epsilon", _GRID_EPSILONS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16, 32])
    def test_calibrated_laws(self, k, epsilon):
        law = calibrated_law(k, epsilon)
        assert abs(client_report_log_ratio(law) - _oracle_log_ratio(law)) <= 1e-12

    @pytest.mark.parametrize(
        ("k", "epsilon"), [(2, 1.0), (4, 1.0), (8, 2.0), (16, 0.5), (32, 1.0)]
    )
    def test_bun_laws(self, k, epsilon):
        law = bun_annulus_law(k, epsilon)
        assert abs(client_report_log_ratio(law) - _oracle_log_ratio(law)) <= 1e-12

    def test_bun_grid_covers_both_degenerate_shapes(self):
        """The Bun cases above include an annulus covering every distance and
        one whose inner bound is positive."""
        assert bun_annulus_law(4, 1.0).complement_empty
        assert bun_annulus_law(8, 2.0).lo > 0

    @pytest.mark.parametrize(
        "law",
        [
            AnnulusLaw.for_future_rand(8, 1.0),
            calibrated_law(8, 0.5),
            bun_annulus_law(4, 1.0),
            bun_annulus_law(8, 2.0),
        ],
        ids=["paper", "calibrated", "bun-full-annulus", "bun-positive-lo"],
    )
    def test_every_max_support(self, law):
        for top in range(law.k + 1):
            assert abs(
                client_report_log_ratio(law, max_support=top)
                - _oracle_log_ratio(law, top)
            ) <= 1e-12


class TestClientReportRatioEdges:
    @pytest.mark.parametrize(
        "law",
        [AnnulusLaw.for_future_rand(16, 1.0), bun_annulus_law(4, 1.0)],
        ids=["paper", "bun-full-annulus"],
    )
    def test_max_support_zero_is_exactly_zero(self, law):
        """With no support every input reports a uniform word."""
        assert client_report_log_ratio(law, max_support=0) == 0.0

    @pytest.mark.parametrize("epsilon", _GRID_EPSILONS)
    def test_k_one_is_basic_randomizer(self, epsilon):
        """At k=1 the report is one eps_tilde-randomized response: its ratio
        is ln((1 - p) / p) = eps_tilde."""
        law = AnnulusLaw.for_future_rand(1, epsilon)
        p = law.flip_probability
        assert client_report_log_ratio(law) == pytest.approx(
            math.log((1.0 - p) / p), abs=1e-12
        )
        assert client_report_log_ratio(law) == pytest.approx(law.eps_tilde, abs=1e-12)

    def test_empty_complement_makes_no_nan(self):
        """log P*_out = -inf must not turn into NaN in the log-space sums."""
        law = bun_annulus_law(4, 1.0)
        assert law.log_p_out == LOG_ZERO
        with np.errstate(all="raise"):
            ratios = [
                client_report_log_ratio(law, max_support=top)
                for top in range(law.k + 1)
            ]
        assert all(math.isfinite(ratio) for ratio in ratios)
