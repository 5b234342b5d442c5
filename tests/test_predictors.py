import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim import goldens
from fragsim.errors import DomainError
from fragsim.params import ModelParams
from fragsim.predictors import (
    PredictorWindow,
    ceil_strict,
    largest_depth_center,
    largest_depth_envelope_inverses,
    largest_depth_window,
    min_leaf_bracket,
    min_leaf_center,
    mu_largest,
    mu_smallest,
    smallest_depth_center,
    smallest_depth_envelope_inverse,
    smallest_depth_window,
    solve_min_leaf_center,
    staircase_value_window,
)

P21 = ModelParams(2, 1.0)
PARAM_GRID = [ModelParams(2, 1.0), ModelParams(2, 0.5), ModelParams(3, 1.0), ModelParams(5, 2.0)]


def test_ceil_strict_is_least_integer_above():
    assert ceil_strict(3.0) == 4
    assert ceil_strict(3.2) == 4
    assert ceil_strict(-0.5) == 0
    assert ceil_strict(-1.0) == 0


class TestLargestDepth:
    def test_reference_value(self):
        # alpha = 1 makes the log(gamma*kappa) term vanish
        assert largest_depth_center(P21, math.e**10) == pytest.approx(
            1.4426950408889634 * (10 - math.log(10.0)), abs=1e-12
        )
        assert largest_depth_center(P21, math.e**10) == pytest.approx(11.105022314002271, abs=1e-12)

    def test_alpha_one_scale_free(self):
        for k in (2, 3, 5):
            p = ModelParams(k, 1.0)
            assert p.gamma * p.kappa == pytest.approx(1.0, rel=1e-14)

    def test_increasing(self):
        ts = np.exp(np.linspace(2.0, 40.0, 50))
        values = [largest_depth_center(P21, float(t)) for t in ts]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            largest_depth_center(P21, math.e)

    def test_window_constant(self):
        assert mu_largest(P21) == pytest.approx(4.32808512266689, abs=1e-12)

    def test_window_shrinks(self):
        widths = [
            largest_depth_window(P21, math.e**x).half_width for x in (5, 10, 20, 40)
        ]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_window_integers_adjacent_for_large_t(self):
        for x in (30, 35, 40, 50, 60):
            w = largest_depth_window(P21, math.e**x)
            assert w.lo_int <= w.hi_int <= w.lo_int + 1


class TestSmallestDepth:
    def test_shift_constant(self):
        # -1/(2 kappa) - log kappa + gamma - log(2 gamma)/2 + 1 at k=2, alpha=1
        from fragsim.predictors import smallest_depth_shift

        assert smallest_depth_shift(P21) == pytest.approx(0.8167435397091679, abs=1e-12)

    def test_window_constant(self):
        assert mu_smallest(P21) == pytest.approx(2.5535616946045723, abs=1e-12)

    def test_above_largest_center(self):
        for p in PARAM_GRID:
            for x in (3, 6, 12, 24):
                t = math.e**x
                assert smallest_depth_center(p, t) > largest_depth_center(p, t)

    def test_windows_disjoint_for_large_t(self):
        for p in PARAM_GRID:
            for x in (10, 15, 25, 40):
                t = math.e**x
                assert (
                    largest_depth_window(p, t).hi_int
                    < smallest_depth_window(p, t).lo_int
                )

    def test_window_shrinks(self):
        widths = [
            smallest_depth_window(P21, math.e**x).half_width for x in (5, 10, 20, 40)
        ]
        assert all(w > 0 for w in widths)
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            smallest_depth_center(P21, 2.0)


class TestMinLeafCenter:
    def test_reference_value(self):
        assert min_leaf_center(P21, 100) == pytest.approx(7.80684916113148, abs=1e-10)

    def test_increasing_from_two(self):
        values = [min_leaf_center(P21, n) for n in range(2, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            min_leaf_center(P21, 0)

    def test_exact_solver_reference(self):
        # bisection oracle on [1, 20]
        kappa, gamma = P21.kappa, P21.gamma
        rhs = math.sqrt(2 * gamma * 100 / kappa)
        shift = 1 / (2 * kappa) + math.log(kappa) - 1

        def f(z):
            return z + math.log(z) + shift - rhs

        lo, hi = 1.0, 20.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        z = solve_min_leaf_center(P21, 100)
        assert z == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert z == pytest.approx(8.009, abs=1e-3)

    def test_root_residual(self):
        for p in PARAM_GRID:
            for n in (1, 10, 1000):
                z = solve_min_leaf_center(p, n)
                residual = (
                    z
                    + math.log(z)
                    + 1 / (2 * p.kappa)
                    + math.log(p.kappa)
                    - 1
                    - math.sqrt(2 * p.gamma * n / p.kappa)
                )
                assert abs(residual) < 1e-12

    def test_tiny_centers(self):
        # alpha = 1000 puts z_1 near 1e-134; the bracket starts at exp(c - 1)
        p = ModelParams(2, 1000.0)
        z = solve_min_leaf_center(p, 1)
        c = math.sqrt(2 * p.gamma / p.kappa) - 1 / (2 * p.kappa) - math.log(p.kappa) + 1
        assert z == pytest.approx(math.exp(c - z), rel=1e-12)
        with pytest.raises(DomainError, match="underflows"):
            solve_min_leaf_center(ModelParams(2, 3000.0), 1)

    def test_expansion_approaches_exact_center(self):
        gaps = [
            abs(solve_min_leaf_center(P21, n) - min_leaf_center(P21, n))
            for n in (100, 1000, 10000)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_recorded_gap_fit(self):
        observed = goldens.center_gap_fit()
        assert observed == pytest.approx(goldens.CENTER_GAP_FIT, rel=1e-6)

    def test_bracket(self):
        s_minus, s_plus = min_leaf_bracket(P21, 100)
        assert s_minus < s_plus
        z = solve_min_leaf_center(P21, 100)
        assert s_minus == pytest.approx(math.exp(-z - math.log(z) ** 2 / z), rel=1e-9)
        assert s_minus == pytest.approx(math.exp(-8.548), abs=2e-4)
        big = [min_leaf_bracket(P21, n)[1] for n in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(big, big[1:]))


class TestEnvelopeInverses:
    def test_round_trip(self):
        q, gamma = P21.q, P21.gamma
        t = math.e**20
        a_inv, b_inv = largest_depth_envelope_inverses(P21, t)
        a_val = q ** (-a_inv) * (gamma * a_inv - math.log(2 * math.log(a_inv)))
        b_val = q ** (-b_inv) * (gamma * b_inv + 2 * math.log(b_inv))
        assert a_val == pytest.approx(t, rel=1e-9)
        assert b_val == pytest.approx(t, rel=1e-9)
        assert b_inv <= a_inv

    def test_matches_center_expansion(self):
        # (a_inv - g) * log t / log log t approaches kappa from above; the
        # remainder shrinks like log(log log t)/log log t, so the observed
        # excess at e^40 (0.9203, frozen from the numeric inversion) is
        # still large but strictly decreasing along the grid
        excesses = []
        for big_l in (40.0, 100.0, 400.0):
            t = math.e**big_l
            a_inv, _ = largest_depth_envelope_inverses(P21, t)
            ll_over_l = math.log(big_l) / big_l
            excesses.append(
                (a_inv - largest_depth_center(P21, t)) / ll_over_l - P21.kappa
            )
        assert excesses[0] == pytest.approx(0.9203, abs=5e-4)
        assert all(e > 0 for e in excesses)
        assert all(b < a for a, b in zip(excesses, excesses[1:]))
        # the slower envelope matches its expansion coefficient much sooner
        t = math.e**40
        _, b_inv = largest_depth_envelope_inverses(P21, t)
        coeff = (b_inv - largest_depth_center(P21, t)) / (math.log(40.0) / 40.0)
        assert coeff == pytest.approx(P21.kappa - 2.0 / P21.gamma, abs=0.2)

    def test_domain(self):
        with pytest.raises(DomainError):
            largest_depth_envelope_inverses(P21, 1.0)

    def test_smallest_round_trip_and_order(self):
        kappa, gamma = P21.kappa, P21.gamma
        c_hat = 1 / (2 * kappa) + 0.5 * math.log(kappa) - 1 + 0.5 * math.log(2 * gamma)
        t = math.e**20
        inv_plus = smallest_depth_envelope_inverse(P21, t, +1)
        inv_minus = smallest_depth_envelope_inverse(P21, t, -1)

        def p_sigma(x, sigma):
            return math.exp(
                x / kappa
                - math.sqrt(2 * gamma * x / kappa)
                + 0.5 * math.log(x)
                + c_hat
                + sigma * x ** (-1 / 3)
            )

        assert p_sigma(inv_plus, +1) == pytest.approx(t, rel=1e-9)
        assert p_sigma(inv_minus, -1) == pytest.approx(t, rel=1e-9)
        assert inv_plus <= inv_minus

    def test_smallest_inverse_near_center(self):
        t = math.e**30
        tol = 2 * mu_smallest(P21) / 30 ** (1 / 3)
        for sigma in (-1, +1):
            inv = smallest_depth_envelope_inverse(P21, t, sigma)
            assert abs(inv - smallest_depth_center(P21, t)) <= tol

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            smallest_depth_envelope_inverse(P21, math.e**10, 0)


class TestStaircaseWindow:
    def test_exact_jumps_give_singleton(self):
        jumps = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        levels = np.arange(5)
        lo, hi = staircase_value_window(levels, jumps, jumps, 3.0)
        assert lo == hi == 2
        # value at a jump point moves to the next level
        lo, hi = staircase_value_window(levels, jumps, jumps, 4.0)
        assert lo == hi == 3

    def test_self_consistency_random_staircase(self):
        rng = np.random.default_rng(5)
        jumps = np.cumsum(rng.exponential(2.0, size=40)) + 1.0
        levels = np.arange(40)
        for t in rng.uniform(jumps[0], jumps[-1] * 0.999, size=200):
            true_value = int(np.searchsorted(jumps, t, side="right"))
            if t >= jumps[-1]:
                continue
            lo, hi = staircase_value_window(levels, jumps, jumps, float(t))
            assert lo <= true_value <= hi

    def test_jittered_bounds_cover(self):
        rng = np.random.default_rng(11)
        jumps = np.cumsum(rng.exponential(3.0, size=60)) + 2.0
        # jitter below half the smaller adjacent gap keeps bounds monotone
        gaps = np.diff(jumps)
        room = np.minimum(np.append(gaps, gaps[-1]), np.insert(gaps, 0, gaps[0]))
        jitter = rng.uniform(0.0, 0.49, size=60) * room
        lower = jumps - jitter
        upper = jumps + jitter
        assert (np.diff(lower) > 0).all() and (np.diff(upper) > 0).all()
        levels = np.arange(60)
        probes = rng.uniform(lower[0], lower[-1] * 0.999, size=500)
        for t in probes:
            true_value = int(np.searchsorted(jumps, t, side="right"))
            lo, hi = staircase_value_window(levels, lower, upper, float(t))
            assert lo <= true_value <= hi

    def test_range_errors(self):
        jumps = np.array([1.0, 2.0, 3.0])
        levels = np.arange(3)
        with pytest.raises(DomainError):
            staircase_value_window(levels, jumps, jumps, 3.5)
        with pytest.raises(DomainError):
            staircase_value_window(np.array([0, 2, 3]), jumps, jumps, 1.5)


class TestWindowType:
    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0, max_value=10),
    )
    def test_invariants(self, center, half):
        w = PredictorWindow.from_center(center, half)
        assert w.lo_int <= w.hi_int
        assert w.lo_int == ceil_strict(center - half)
        assert w.hi_int == ceil_strict(center + half)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=10.0, max_value=80.0))
    def test_window_covers_own_center_ceiling(self, x):
        w = largest_depth_window(P21, math.e**x)
        assert w.covers(ceil_strict(w.center))
