import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fragsim.brw import sweep_replicas
from fragsim.errors import DomainError, SpecError
from fragsim.experiment import ExperimentSpec
from fragsim.lefttail import left_tail_sandwich
from fragsim.params import ModelParams, as_kappa, as_q
from fragsim.predictors import min_leaf_center
from fragsim.qseries import qpochhammer_factors
from fragsim.seeds import SeedSpec


@pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 0.5), (5, 2.0)])
def test_derived_constants(k, alpha):
    p = ModelParams(k, alpha)
    assert p.q == pytest.approx(k ** (-alpha))
    assert p.gamma == pytest.approx(math.log(k))
    assert p.kappa == pytest.approx(1.0 / (math.log(k) * alpha))


@given(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
)
def test_q_kappa_consistency(k, alpha):
    p = ModelParams(k, alpha)
    assert 0.0 < p.q < 1.0
    assert p.q == pytest.approx(math.exp(-1.0 / p.kappa), rel=1e-12)


@pytest.mark.parametrize("k,alpha", [(1, 1.0), (0, 1.0), (-2, 1.0), (2, 0.0), (2, -1.0), (2, math.inf)])
def test_rejects_bad_parameters(k, alpha):
    with pytest.raises(DomainError):
        ModelParams(k, alpha)


@pytest.mark.parametrize("alpha, q", [(3000.0, 0.0), (1e-17, 1.0)])
def test_rejects_alpha_whose_q_rounds_out_of_range(alpha, q):
    assert 2 ** (-alpha) == q
    with pytest.raises(DomainError, match=f"alpha={alpha!r} gives q={q!r}"):
        ModelParams(2, alpha)
    with pytest.raises(SpecError, match="alpha"):
        ExperimentSpec(k=2, alpha=alpha, engine="brw", n_max=1)


def test_as_q_accepts_both_forms():
    p = ModelParams(2, 1.0)
    assert as_q(p) == 0.5
    assert as_q(0.25) == 0.25
    with pytest.raises(DomainError):
        as_q(1.0)
    with pytest.raises(DomainError):
        as_q(0.0)


def test_as_kappa_matches_params():
    p = ModelParams(2, 1.0)
    assert as_kappa(p) == pytest.approx(as_kappa(p.q), rel=1e-14)
    assert as_kappa(0.5) == pytest.approx(1.0 / math.log(2.0))


_P = ModelParams(2, 1.0)


@pytest.mark.parametrize("call, error", [
    (lambda: sweep_replicas(_P, True, [SeedSpec(1)]), DomainError),
    (lambda: SeedSpec(True), DomainError),
    (lambda: SeedSpec(1, True), DomainError),
    (lambda: left_tail_sandwich(0.5, True, 0.1), DomainError),
    (lambda: min_leaf_center(_P, True), DomainError),
    (lambda: qpochhammer_factors(0.5, 2.5), DomainError),
    # a cached (0.5, 1) entry must not answer n=True
    (lambda: (qpochhammer_factors(0.5, 1), qpochhammer_factors(0.5, True)), DomainError),
    (lambda: ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=True), SpecError),
    (lambda: ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=1, replicas=True), SpecError),
    (lambda: ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=1, master_seed=True), SpecError),
], ids=["sweep_n_max", "seed_master", "seed_replica", "sandwich_m", "min_leaf_n",
        "qpoch_float", "qpoch_cached_bool", "spec_n_max", "spec_replicas", "spec_seed"])
def test_integer_arguments_refuse_bool_and_float(call, error):
    with pytest.raises(error, match="must be an integer"):
        call()
