import pytest
from hypothesis import given
from hypothesis import strategies as st

from fragsim.errors import DomainError
from fragsim.laws import gumbel_limit_cdf, perpetuity_survival_limit
from fragsim.qseries import qpochhammer, qpochhammer_limit, qpochhammer_prefix
from fragsim.stats import intensity_profile, ks_gumbel


def test_empty_product_is_one():
    assert qpochhammer(0.5, 0) == 1.0


def test_single_factor():
    assert qpochhammer(0.5, 1) == 0.5


def test_five_factor_product():
    # direct product of (1 - 0.5^j), j = 1..5
    assert qpochhammer(0.5, 5) == pytest.approx(0.298004150390625, abs=1e-15)


def test_limit_small_q_first_factor_dominates():
    q = 1e-12
    assert qpochhammer_limit(q) == pytest.approx(1.0 - q, abs=1e-13)


def test_limit_values():
    # iterated product with relative remainder < 1e-14
    assert qpochhammer_limit(0.5) == pytest.approx(0.2887880950866024, abs=1e-12)
    assert qpochhammer_limit(0.8) == pytest.approx(0.0033680058524231155, abs=1e-12)


@given(st.floats(min_value=0.01, max_value=0.95), st.integers(min_value=0, max_value=60))
def test_limit_below_every_partial_product(q, n):
    # allow a few ulps: both products round independently
    assert qpochhammer_limit(q) <= qpochhammer(q, n) * (1 + 1e-13)


def test_limit_below_partials_exactly_at_example_values():
    for n in range(0, 30):
        assert qpochhammer_limit(0.5) <= qpochhammer(0.5, n)
        assert qpochhammer_limit(0.8) <= qpochhammer(0.8, n)


@given(st.floats(min_value=0.01, max_value=0.95), st.integers(min_value=1, max_value=60))
def test_decreasing_in_n(q, n):
    # strictly decreasing while 1 - q^j is representable below 1.0
    factors = [qpochhammer(q, i) for i in range(n + 1)]
    assert all(b <= a for a, b in zip(factors, factors[1:]))
    for j, (a, b) in enumerate(zip(factors, factors[1:]), start=1):
        if q**j > 1e-12:
            assert b < a


@pytest.mark.parametrize("q", [1e-300, 0.3, 0.5, 0.95])
def test_prefix_stops_where_products_stop_changing(q):
    prefix = qpochhammer_prefix(q, 10**9)
    assert len(prefix) < 1000 and prefix[-2:] != (prefix[-1],) * 2
    full, qj = [1.0], 1.0  # every product up to n = len(prefix) + 50, factor by factor
    for _ in range(len(prefix) + 50):
        qj *= q
        full.append(full[-1] * (1.0 - qj))
    assert tuple(full[: len(prefix)]) == prefix
    assert set(full[len(prefix) - 1 :]) == {prefix[-1]}
    assert qpochhammer(q, 10**9) == qpochhammer(q, len(prefix) + 50) == prefix[-1]
    assert qpochhammer_prefix(q, 3) == tuple(full[: min(4, len(prefix))])


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
def test_domain_rejects_bad_q(q):
    with pytest.raises(DomainError):
        qpochhammer(q, 3)
    with pytest.raises(DomainError):
        qpochhammer_limit(q)


def test_rejects_negative_n():
    with pytest.raises(DomainError):
        qpochhammer(0.5, -1)


def test_limit_underflow_is_a_domain_error():
    # (q;q)_inf is below the smallest normal float for q above about 0.9977,
    # so no caller may divide by it
    q = 0.999
    with pytest.raises(DomainError, match="q=0.999"):
        qpochhammer_limit(q)
    with pytest.raises(DomainError):
        perpetuity_survival_limit(q, 1.0)
    for s in (0.0, -800.0):
        with pytest.raises(DomainError):
            gumbel_limit_cdf(q, s)
    with pytest.raises(DomainError):
        intensity_profile([[0.5, 1.5]], [(0.0, 1.0)], q)
    with pytest.raises(DomainError):
        ks_gumbel([0.01 * i for i in range(100)], q)
