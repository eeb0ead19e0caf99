"""MMPP(2) analytics, fitting, and generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.mmpp import (
    MMPP2,
    fit_mmpp2,
    generate_mmpp_trace,
    lognormal_params,
)
from repro.workloads.request import OpType


def poissonish():
    """An MMPP whose two phases are identical ⇒ a plain Poisson process."""
    return MMPP2(lambda1=1e-4, lambda2=1e-4, r12=1e-6, r21=1e-6)


def bursty():
    return MMPP2(lambda1=5e-4, lambda2=2e-5, r12=1e-6, r21=1e-6)


class TestAnalytics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MMPP2(0, 1, 1, 1)
        with pytest.raises(ValueError):
            MMPP2(1, 1, -1, 1)

    def test_stationary_phase_sums_to_one(self):
        pi = bursty().stationary_phase
        assert pi.sum() == pytest.approx(1.0)
        assert (pi > 0).all()

    def test_poisson_degenerate_mean(self):
        m = poissonish()
        assert m.interarrival_mean() == pytest.approx(1e4, rel=1e-6)

    def test_poisson_degenerate_scv_is_one(self):
        assert poissonish().interarrival_scv() == pytest.approx(1.0, rel=1e-6)

    def test_poisson_degenerate_autocorr_is_zero(self):
        assert poissonish().autocorrelation(1) == pytest.approx(0.0, abs=1e-9)

    def test_bursty_scv_above_one(self):
        assert bursty().interarrival_scv() > 1.5

    def test_bursty_autocorr_positive(self):
        assert bursty().autocorrelation(1) > 0.0

    def test_autocorr_decays_with_lag(self):
        m = bursty()
        rhos = [m.autocorrelation(k) for k in (1, 2, 4, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(rhos, rhos[1:]))

    def test_mean_rate_matches_inverse_mean_for_poisson(self):
        m = poissonish()
        assert m.mean_rate * m.interarrival_mean() == pytest.approx(1.0, rel=1e-6)

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            bursty().interarrival_moment(0)
        with pytest.raises(ValueError):
            bursty().autocorrelation(0)


class TestFitting:
    def test_fit_matches_mean_and_scv(self):
        m = fit_mmpp2(12_000, 3.0, 0.2)
        assert m.interarrival_mean() == pytest.approx(12_000, rel=0.02)
        assert m.interarrival_scv() == pytest.approx(3.0, rel=0.05)
        assert m.autocorrelation(1) == pytest.approx(0.2, abs=0.05)

    def test_fit_clamps_low_scv_to_poisson(self):
        m = fit_mmpp2(10_000, 0.5)
        assert m.interarrival_scv() == pytest.approx(1.0, abs=0.05)

    def test_fit_clamps_infeasible_autocorr(self):
        # rho_max = (scv-1)/(2 scv) = 0.25 for scv=2.
        m = fit_mmpp2(10_000, 2.0, 0.9)
        assert m.autocorrelation(1) <= 0.26

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_mmpp2(0, 2.0)
        with pytest.raises(ValueError):
            fit_mmpp2(1000, -1.0)

    @pytest.mark.parametrize(
        "target", [(12_000, 3.0, 0.2), (1_000, 1.5, 0.0), (64_000, 8.0, 0.3), (10_000, 0.5, 0.0)]
    )
    def test_residual_statistics_equal_public_ones_bit_for_bit(self, target):
        # The fit's residual reads fit_statistics(); the model it returns
        # must report exactly those values through the public methods.
        for m in (fit_mmpp2(*target), bursty(), poissonish()):
            assert m.fit_statistics() == (
                m.interarrival_mean(),
                m.interarrival_scv(),
                m.autocorrelation(1),
            )

    @settings(deadline=None, max_examples=15)
    @given(
        st.floats(min_value=1_000, max_value=100_000),
        st.floats(min_value=1.5, max_value=8.0),
    )
    def test_fit_mean_scv_property(self, mean, scv_target):
        m = fit_mmpp2(mean, scv_target)
        assert m.interarrival_mean() == pytest.approx(mean, rel=0.05)
        assert m.interarrival_scv() == pytest.approx(scv_target, rel=0.1)


class TestSampling:
    def test_sample_mean_matches_analytic(self):
        m = fit_mmpp2(10_000, 4.0, 0.2)
        rng = np.random.default_rng(0)
        x = m.sample_interarrivals(40_000, rng)
        assert x.mean() == pytest.approx(10_000, rel=0.1)

    def test_sample_scv_matches_analytic(self):
        m = fit_mmpp2(10_000, 4.0, 0.2)
        rng = np.random.default_rng(1)
        x = m.sample_interarrivals(60_000, rng)
        assert x.var() / x.mean() ** 2 == pytest.approx(4.0, rel=0.25)

    def test_sample_counts(self):
        rng = np.random.default_rng(2)
        assert bursty().sample_interarrivals(0, rng).size == 0
        with pytest.raises(ValueError):
            bursty().sample_interarrivals(-1, rng)


class TestLognormal:
    def test_params_recover_mean_scv(self):
        mu, sigma = lognormal_params(32_768, 2.0)
        rng = np.random.default_rng(3)
        x = rng.lognormal(mu, sigma, 300_000)
        assert x.mean() == pytest.approx(32_768, rel=0.05)
        assert x.var() / x.mean() ** 2 == pytest.approx(2.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            lognormal_params(0, 1)
        with pytest.raises(ValueError):
            lognormal_params(100, -1)


class TestTraceGeneration:
    def test_generate_basic(self):
        m = fit_mmpp2(10_000, 3.0)
        t = generate_mmpp_trace(
            m, n_requests=500, op=OpType.READ, mean_size_bytes=16_384, seed=4
        )
        assert len(t) == 500
        assert all(r.is_read for r in t)
        assert t.interarrivals().mean() == pytest.approx(10_000, rel=0.3)

    def test_sizes_aligned(self):
        m = fit_mmpp2(10_000, 3.0)
        t = generate_mmpp_trace(
            m, n_requests=100, op=OpType.WRITE, mean_size_bytes=10_000,
            size_align_bytes=4096, seed=5,
        )
        assert all(r.size_bytes % 4096 == 0 for r in t)

    def test_deterministic_with_seed(self):
        m = fit_mmpp2(10_000, 3.0)
        a = generate_mmpp_trace(m, n_requests=50, op=OpType.READ, mean_size_bytes=8192, seed=6)
        b = generate_mmpp_trace(m, n_requests=50, op=OpType.READ, mean_size_bytes=8192, seed=6)
        assert [r.arrival_ns for r in a] == [r.arrival_ns for r in b]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_mmpp_trace(
                bursty(), n_requests=-1, op=OpType.READ, mean_size_bytes=8192
            )
