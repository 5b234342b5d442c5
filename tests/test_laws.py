import copy
import dataclasses
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fragsim import laws
from fragsim.errors import DomainError
from fragsim.laws import (
    TailEval,
    gumbel_limit_cdf,
    perpetuity_cdf,
    perpetuity_density,
    perpetuity_survival,
    perpetuity_survival_limit,
    split_time_survival,
    tagged_depth_pmf,
)
from fragsim.params import ModelParams
from fragsim.qseries import qpochhammer_limit

from oracles import (
    hypoexp_cdf_mp,
    hypoexp_density_mp,
    hypoexp_survival_mp,
    limit_reference,
    series_reference,
)

QS = (0.3, 0.5, 0.8)


def crude_density_max(q: float) -> float:
    """max over t in [0, 20] step 0.25, n in {1..6, 12, 20} of
    density * e^t."""
    return max(
        perpetuity_density(q, n, float(t)).value * math.exp(t)
        for n in (1, 2, 3, 4, 5, 6, 12, 20)
        for t in np.arange(0.0, 20.0 + 1e-9, 0.25)
    )


# crude_density_max(q), recorded; regenerate by printing it for each q
CRUDE_DENSITY_MAX: dict[float, float] = {
    0.3: 1.6322582433456045,
    0.5: 3.4627433028491206,
    0.8: 274.09534565565207,
}


class TestSurvival:
    def test_n0_is_standard_exponential(self):
        for t in (0.0, 0.5, 1.0, 3.0):
            assert perpetuity_survival(0.5, 0, t).value == pytest.approx(
                math.exp(-t), abs=1e-15
            )

    def test_two_term_closed_form(self):
        # independent closed form for W0 + q W1 at q=0.5, t=1
        expected = 2 * math.exp(-1) - math.exp(-2)
        ev = perpetuity_survival(0.5, 1, 1.0)
        assert ev.value == pytest.approx(expected, abs=1e-14)
        assert ev.value == pytest.approx(0.600424, abs=1e-6)

    def test_survival_at_zero_is_one(self):
        for q in (*QS, 0.95, 0.99):
            for n in (0, 1, 7, 25, 200):
                assert perpetuity_survival(q, n, 0.0) == TailEval(1.0, 0.0)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_against_partial_fraction_oracle(self, q, n):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            expected = float(hypoexp_survival_mp(q, n, t))
            ev = perpetuity_survival(q, n, t)
            assert abs(ev.value - expected) <= max(ev.abs_error, 1e-13)

    def test_error_estimate_reported(self):
        ev = perpetuity_survival(0.8, 20, 0.01)
        assert isinstance(ev, TailEval)
        assert ev.abs_error > 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            perpetuity_survival(0.5, -1, 1.0)
        with pytest.raises(DomainError):
            perpetuity_survival(0.5, 1, -0.5)
        with pytest.raises(DomainError):
            perpetuity_survival(1.2, 1, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.integers(min_value=0, max_value=25),
        st.floats(min_value=0.0, max_value=25.0),
    )
    def test_monotone_in_n_and_bounded(self, q, n, t):
        a = perpetuity_survival(q, n, t)
        b = perpetuity_survival(q, n + 1, t)
        assert 0.0 <= a.value <= 1.0
        assert b.value >= a.value - a.abs_error - b.abs_error


class TestDensity:
    def test_n0_density(self):
        for t in (0.0, 1.0, 2.5):
            assert perpetuity_density(0.5, 0, t).value == pytest.approx(
                math.exp(-t), abs=1e-15
            )

    def test_two_term_closed_form(self):
        expected = 2 * (math.exp(-1) - math.exp(-2))
        ev = perpetuity_density(0.5, 1, 1.0)
        assert ev.value == pytest.approx(expected, abs=1e-14)
        assert ev.value == pytest.approx(0.465088, abs=1e-6)

    def test_matches_oracle(self):
        for q in QS:
            for n in (1, 3, 6):
                for t in (0.2, 1.0, 4.0):
                    expected = float(hypoexp_density_mp(q, n, t))
                    assert perpetuity_density(q, n, t).value == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_normalizes_to_one(self):
        total, quad_err = quad(
            lambda t: perpetuity_density(0.5, 5, t).value, 0.0, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_negative_survival_derivative(self):
        h = 1e-4
        for q in QS:
            for n in (1, 4, 9):
                for t in (0.5, 1.0, 2.0, 5.0):
                    fd = (
                        perpetuity_survival(q, n, t - h).value
                        - perpetuity_survival(q, n, t + h).value
                    ) / (2 * h)
                    assert perpetuity_density(q, n, t).value == pytest.approx(
                        fd, abs=1e-6
                    )

    def test_exponential_envelope_constant_is_recorded(self):
        # density * e^t stays below a per-q constant; the grid maximum is a
        # recorded golden, re-asserted here
        for q, golden in CRUDE_DENSITY_MAX.items():
            worst = crude_density_max(q)
            assert worst == pytest.approx(golden, rel=1e-9)
            assert worst <= golden * (1 + 1e-9)


STOP_TS = (5e-324, 1e-300, 0.02, 1.0, 20.0, 700.0, 746.0, 1e300)


def _reprs(ev):
    # repr tells -0.0 from 0.0
    return repr(ev.value), repr(ev.abs_error)


def _same(ev, ref):
    assert _reprs(ev) == tuple(map(repr, ref))


class TestSeriesStop:
    """Ending a series at its first zero exponential changes no bit."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95, 0.99])
    @pytest.mark.parametrize("n", [0, 1, 5, 40, 200])
    def test_finite_n_matches_full_sum(self, q, n):
        for t in STOP_TS:
            full = series_reference(q, n, t, 0, stop=False)
            _same(perpetuity_survival(q, n, t), full)
            full = series_reference(q, n, t, 1, stop=False)
            _same(perpetuity_density(q, n, t), full)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95, 0.99])
    def test_limit_matches_full_sum(self, q):
        for t in STOP_TS:
            full = limit_reference(q, t, stop=False)
            _same(perpetuity_survival_limit(q, t), full)


PARITY_TS = (0.0, 5e-324, 745.0, 746.0, 1e300)


def _reference_survival(q, n, t):
    if t == 0.0:
        return TailEval(1.0, 0.0)
    return TailEval(*series_reference(q, n, t, 0))


class TestTermTables:
    """The cached term tables give every law bit for bit the value of the
    term-by-term reference sum."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=0, max_value=400),
        st.one_of(
            st.sampled_from(PARITY_TS),
            st.floats(min_value=0.0, max_value=800.0),
            st.floats(min_value=0.0, max_value=1e300),
        ),
    )
    def test_parity_with_term_by_term_sum(self, q, n, t):
        ref = series_reference(q, n, t, 0) if t > 0.0 else (1.0, 0.0)
        _same(perpetuity_survival(q, n, t), ref)
        _same(perpetuity_density(q, n, t), series_reference(q, n, t, 1))
        ref = limit_reference(q, t) if t > 0.0 else (1.0, 0.0)
        _same(perpetuity_survival_limit(q, t), ref)
        # the compositions, with the reference survival in place of the tables
        fns = (perpetuity_cdf, split_time_survival, tagged_depth_pmf)
        got = [_reprs(fn(q, n, t)) for fn in fns]
        with mock.patch.object(laws, "perpetuity_survival", _reference_survival):
            assert got == [_reprs(fn(q, n, t)) for fn in fns]

    def test_tables_are_immutable_tuples(self):
        for table in (laws._series_coeffs(0.5, 40, 0), laws._limit_coeffs(0.5)):
            assert isinstance(table, tuple)
            assert all(isinstance(row, tuple) and len(row) == 3 for row in table)
        assert len(laws._series_coeffs(0.5, 40, 1)) == 41
        # past the numerator underflow the length no longer grows with n
        for shift in (0, 1):
            assert len(laws._series_coeffs(0.5, 10**6, shift)) <= 47

    def test_huge_n_costs_what_the_table_needs(self):
        # every (q;q)_j past j = 53 is one float at q = 0.5, so n = 10^9 reads
        # the products n = 10^5 reads, without building a billion of them
        expected = repr(perpetuity_survival(0.5, 10**5, 1.0))
        tracemalloc.start()
        try:
            got = repr(perpetuity_survival(0.5, 10**9, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 1 << 20

    @pytest.mark.parametrize("q, n", [(0.3, 400), (0.5, 200), (0.95, 100), (0.5, 10**5)])
    def test_tables_end_at_numerator_underflow(self, q, n):
        for t in (1e300, 800.0, 20.0, 1.0, 0.02, 1e-9, 5e-324):
            _same(perpetuity_survival(q, n, t), series_reference(q, n, t, 0))
            _same(perpetuity_density(q, n, t), series_reference(q, n, t, 1))
        _same(perpetuity_density(q, n, 0.0), series_reference(q, n, 0.0, 1))
        for shift in (0, 1):
            # q^{j(j+1)/2 - j*shift} is 0.0 once its exponent passes 1076 bits
            first_zero = next(
                j for j in range(n + 2)
                if j > n or (j * (j + 1) / 2 - j * shift) * -math.log2(q) > 1076
            )
            table = laws._series_coeffs(q, n, shift)
            assert len(table) <= first_zero and all(row[0] != 0.0 for row in table)

    def test_cache_clear_changes_no_value(self):
        def values():
            return [
                _reprs(fn(q, *args))
                for q in (0.3, 0.5, 0.95)
                for fn, args in (
                    (perpetuity_survival, (40, 1.5)),
                    (perpetuity_density, (200, 0.0)),
                    (perpetuity_density, (5, 3.0)),
                    (perpetuity_cdf, (40, 0.01)),
                    (perpetuity_survival_limit, (2.0,)),
                )
            ]

        before = values()
        laws._series_coeffs.cache_clear()
        laws._limit_coeffs.cache_clear()
        assert laws._series_coeffs.cache_info().currsize == 0
        assert values() == before
        assert values() == before  # now from the refilled tables

    def test_bool_n_refused_after_int_n_cached(self):
        perpetuity_survival(0.5, 1, 1.0)
        perpetuity_density(0.5, 1, 1.0)
        for fn in (perpetuity_survival, perpetuity_density):
            with pytest.raises(DomainError):
                fn(0.5, True, 1.0)
        # the cache is typed, so n=True misses the n=1 entry
        for shift in (0, 1):
            with pytest.raises(DomainError):
                laws._series_coeffs(0.5, True, shift)


class TestErrorContract:
    """Every finite-n law returns a TailEval or raises DomainError, up to q
    near 1 where a denominator (q;q)_j (q;q)_(n-j) underflows to 0.0."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=0.9999),
        st.integers(min_value=0, max_value=3000),
        st.one_of(st.sampled_from((0.0, 5e-324)), st.floats(min_value=0.0, max_value=1000.0)),
    )
    @example(0.999, 2000, 1.0)
    def test_tail_eval_or_domain_error(self, q, n, t):
        for fn in (
            perpetuity_survival,
            perpetuity_density,
            perpetuity_cdf,
            split_time_survival,
            tagged_depth_pmf,
        ):
            try:
                assert isinstance(fn(q, n, t), TailEval)
            except DomainError:
                pass

    def test_underflowed_denominator_names_q_and_n(self):
        for fn in (perpetuity_survival, perpetuity_density, perpetuity_cdf):
            with pytest.raises(DomainError, match=r"underflows at q=0\.999, n=2000"):
                fn(0.999, 2000, 1.0)

    def test_tail_eval_is_slotted_and_round_trips(self):
        # a sweep of exact laws holds tens of thousands of these: no per-instance dict
        ev = perpetuity_survival(0.8, 20, 0.01)
        assert not hasattr(ev, "__dict__")
        for copied in (pickle.loads(pickle.dumps(ev)), copy.deepcopy(ev), dataclasses.replace(ev)):
            assert copied == ev and type(copied) is TailEval
            assert (copied.value, copied.abs_error) == (ev.value, ev.abs_error)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.value = 0.5
        with pytest.raises(DomainError, match="value"):
            TailEval(1.5, 0.0)
        with pytest.raises(DomainError, match="value"):
            dataclasses.replace(ev, value=-0.1)
        with pytest.raises(DomainError, match="abs_error"):
            TailEval(0.5, -1.0)


class TestSurvivalLimit:
    def test_equals_one_at_zero(self):
        for q in (*QS, 0.95, 0.99):
            assert perpetuity_survival_limit(q, 0.0) == TailEval(1.0, 0.0)

    def test_close_to_deep_finite_sum(self):
        # n=30 finite series oracle; the gap is of order q^31
        lim = perpetuity_survival_limit(0.5, 5.0)
        fin = perpetuity_survival(0.5, 30, 5.0)
        assert abs(lim.value - fin.value) <= 1e-9

    def test_far_tail_envelope(self):
        ev = perpetuity_survival_limit(0.5, 50.0)
        bound = math.exp(-50.0) / qpochhammer_limit(0.5) * (1 + 1e-6)
        assert ev.value <= bound

    def test_dominates_every_finite_n(self):
        for q in QS:
            for t in (0.1, 1.0, 4.0, 12.0):
                lim = perpetuity_survival_limit(q, t)
                for n in (0, 2, 10, 40):
                    fin = perpetuity_survival(q, n, t)
                    assert lim.value >= fin.value - lim.abs_error - fin.abs_error


class TestCdf:
    def test_complement_in_smooth_regime(self):
        ev = perpetuity_cdf(0.5, 1, 0.1)
        expected = 1 - 2 * math.exp(-0.1) + math.exp(-0.2)
        assert ev.value == pytest.approx(expected, abs=1e-13)

    def test_small_argument_fallback_brackets_truth(self):
        # cancellation regime: the alternating series cannot resolve this
        for q, n, t in ((0.5, 5, 1e-6), (0.3, 4, 1e-5), (0.8, 8, 1e-4)):
            ev = perpetuity_cdf(q, n, t)
            exact = float(hypoexp_cdf_mp(q, n, t))
            assert abs(ev.value - exact) <= ev.abs_error
            assert ev.abs_error < 1.0

    def test_zero(self):
        ev = perpetuity_cdf(0.5, 3, 0.0)
        assert ev.value == 0.0 and ev.abs_error == 0.0


class TestSplitTime:
    def test_n0(self):
        for t in (0.3, 1.0, 4.0):
            assert split_time_survival(0.5, 0, t).value == pytest.approx(
                math.exp(-t), abs=1e-15
            )

    def test_rescaling_identity(self):
        ev = split_time_survival(0.5, 1, 2.0)
        assert ev.value == pytest.approx(
            perpetuity_survival(0.5, 1, 1.0).value, abs=1e-15
        )

    def test_survival_at_zero(self):
        assert split_time_survival(0.5, 7, 0.0).value == 1.0

    def test_monotone_in_n(self):
        p = ModelParams(2, 1.0)
        values = [split_time_survival(p, n, 6.0).value for n in range(12)]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_underflow_branch_is_log_safe(self):
        # q^n t underflows to zero; value must be 1 with a log-space bound,
        # not a silent error
        ev = split_time_survival(0.5, 1200, 10.0)
        assert ev.value == 1.0
        assert ev.abs_error < 1e-300


class TestDepthPmf:
    def test_depth_zero(self):
        for t in (0.2, 1.0, 3.0):
            assert tagged_depth_pmf(0.5, 0, t).value == pytest.approx(
                math.exp(-t), abs=1e-15
            )

    def test_depth_one_value(self):
        # direct integral oracle: int_0^t e^-s q e^... evaluated in closed
        # form as e^{-qt} (1 - e^{-(1-q)t}) / (1-q) at q=0.5, t=1
        q, t = 0.5, 1.0
        expected = math.exp(-q * t) * (1 - math.exp(-(1 - q) * t)) / (1 - q)
        ev = tagged_depth_pmf(q, 1, t)
        assert ev.value == pytest.approx(expected, abs=1e-13)
        assert ev.value == pytest.approx(0.4773024370823822, abs=1e-12)

    def test_total_mass(self):
        total = sum(tagged_depth_pmf(0.5, n, 3.0).value for n in range(41))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_partial_sums_below_one(self):
        acc = 0.0
        for n in range(20):
            acc += tagged_depth_pmf(0.3, n, 2.0).value
            assert acc <= 1.0 + 1e-10


class TestGumbelLimit:
    def test_value_at_zero(self):
        assert gumbel_limit_cdf(0.5, 0.0) == pytest.approx(
            math.exp(-1.0 / 0.2887880950866024), abs=1e-10
        )
        assert gumbel_limit_cdf(0.5, 0.0) == pytest.approx(0.03133, abs=5e-5)

    def test_upper_tail_expansion(self):
        s = 40.0
        expected = 1.0 - math.exp(-s) / qpochhammer_limit(0.5)
        assert gumbel_limit_cdf(0.5, s) == pytest.approx(expected, abs=1e-15)

    def test_median_round_trip(self):
        q = 0.5
        s_star = -math.log(qpochhammer_limit(q) * math.log(2.0))
        assert gumbel_limit_cdf(q, s_star) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(min_value=-5, max_value=30), st.floats(min_value=-5, max_value=30))
    def test_strictly_increasing(self, a, b):
        # below s ~ -5.4 the q=0.5 CDF underflows to 0.0, above ~36 it
        # saturates at 1.0; strictness is testable in between
        if abs(a - b) < 1e-6 or max(a, b) > 30:
            return
        lo, hi = sorted((a, b))
        assert gumbel_limit_cdf(0.5, lo) < gumbel_limit_cdf(0.5, hi)

    def test_limits(self):
        assert gumbel_limit_cdf(0.5, -800.0) == 0.0
        assert gumbel_limit_cdf(0.5, 800.0) == 1.0
        assert gumbel_limit_cdf(0.5, -math.inf) == 0.0
        assert gumbel_limit_cdf(0.5, math.inf) == 1.0

    def test_nan_refused(self):
        with pytest.raises(DomainError):
            gumbel_limit_cdf(0.5, math.nan)
