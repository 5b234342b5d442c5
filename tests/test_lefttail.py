import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fragsim import goldens
from fragsim.errors import DomainError
from fragsim.lefttail import (
    critical_term_count,
    left_tail_exponent,
    left_tail_sandwich,
    stirling_exponent,
)
from fragsim.params import ModelParams

from oracles import hypoexp_cdf_mp

KAPPA_HALF = 1.0 / math.log(2.0)  # kappa for q = 0.5


class TestExponent:
    def test_reference_value(self):
        # high-precision evaluation of the defining expression, frozen
        assert left_tail_exponent(0.5, math.exp(-5)) == pytest.approx(
            31.96202011781633, abs=1e-10
        )
        assert left_tail_exponent(0.5, math.exp(-5)) == pytest.approx(31.96, abs=5e-3)

    def test_boundary_admissible(self):
        value = left_tail_exponent(0.5, math.exp(-2))
        assert math.isfinite(value) and value > 0

    def test_increasing_toward_zero(self):
        assert left_tail_exponent(0.5, math.exp(-6)) > left_tail_exponent(
            0.5, math.exp(-5)
        )

    @pytest.mark.parametrize("s", [0.0, -0.1, math.exp(-2) * 1.0001, 0.5, 1.0])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            left_tail_exponent(0.5, s)

    def test_accepts_params(self):
        p = ModelParams(2, 1.0)
        assert left_tail_exponent(p, math.exp(-5)) == left_tail_exponent(
            0.5, math.exp(-5)
        )

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=3.0, max_value=60.0),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_positive_and_monotone(self, q, j, step):
        a = left_tail_exponent(q, math.exp(-j))
        b = left_tail_exponent(q, math.exp(-j - step))
        assert a > 0
        assert b > a


class TestSandwich:
    def test_m1_upper_is_s(self):
        lower, upper = left_tail_sandwich(0.5, 1, 0.1)
        assert upper == pytest.approx(0.1, abs=1e-15)
        assert 1 - math.exp(-0.1) <= upper
        assert lower <= 1 - math.exp(-0.1)

    def test_m2_reference_values(self):
        lower, upper = left_tail_sandwich(0.5, 2, 0.1)
        assert upper == pytest.approx(0.01, abs=1e-15)
        assert lower == pytest.approx(0.008187307530779819, abs=1e-12)
        exact = 1 - 2 * math.exp(-0.1) + math.exp(-0.2)
        assert lower <= exact <= upper

    def test_zero(self):
        assert left_tail_sandwich(0.5, 3, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [1e-10, 1e-4, 0.05, 0.3])
    def test_brackets_exact_cdf(self, q, m, s):
        lower, upper = left_tail_sandwich(q, m, s)
        exact = float(hypoexp_cdf_mp(q, m - 1, s))
        assert lower * (1 - 1e-12) <= exact <= upper * (1 + 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            left_tail_sandwich(0.5, 0, 0.1)
        with pytest.raises(DomainError):
            left_tail_sandwich(0.5, 2, -0.1)

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_ordering(self, q, m, s):
        lower, upper = left_tail_sandwich(q, m, s)
        assert 0.0 <= lower <= upper


class TestCriticalTermCount:
    def test_reference_value(self):
        # kappa*(5 + log 5) = 9.5354..., strictly-above integer is 10
        assert critical_term_count(0.5, math.exp(-5)) == 10

    def test_strictly_greater_semantics(self):
        # when the target hits an integer exactly, the count moves up
        p = ModelParams(2, 1.0)
        target = critical_term_count(p, math.exp(-2))
        x = p.kappa * (2 + math.log(2.0))
        assert target == math.floor(x) + 1

    def test_monotone(self):
        assert critical_term_count(0.5, math.exp(-6)) >= critical_term_count(
            0.5, math.exp(-5)
        )
        counts = [critical_term_count(0.5, math.exp(-j)) for j in range(3, 50)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_term_count(0.5, 0.2)


class TestStirlingExponent:
    def test_unit_point(self):
        assert stirling_exponent(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_log_upper_within_stirling_envelope(self):
        # the gap equals log m! - (m + 1/2) log m + m, inside [log sqrt(2pi), 1]
        m = 10
        for q in (0.3, 0.5, 0.8):
            kappa = -1.0 / math.log(q)
            for s in (0.01, 0.001):
                exact_log_upper = (
                    m * math.log(s)
                    - 0.5 * m * (m - 1) * math.log(q)
                    - math.log(math.factorial(m))
                )
                gap = stirling_exponent(s, float(m), kappa) - exact_log_upper
                assert abs(gap) <= 1.0
                assert gap == pytest.approx(
                    math.log(math.factorial(m)) - (m + 0.5) * math.log(m) + m,
                    abs=1e-9,
                )

    def test_log_gap_bounded_on_grid(self):
        assert goldens.left_tail_log_gap_max(range(5, 41)) <= 3.0

    def test_recorded_grid_maximum(self):
        observed = goldens.left_tail_log_gap_max(range(5, 31, 5))
        assert observed == pytest.approx(goldens.LEFT_TAIL_LOG_GAP_MAX, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            stirling_exponent(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            stirling_exponent(1.0, -1.0, 1.0)
