import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fragsim.brw import sweep_replicas
from fragsim.errors import DomainError, SpecError
from fragsim.experiment import ExperimentSpec, run_experiment
from fragsim.gillespie import gillespie_run
from fragsim.laws import (
    gumbel_limit_cdf,
    perpetuity_survival,
    perpetuity_survival_limit,
    split_time_survival,
)
from fragsim.lefttail import (
    left_tail_exponent,
    left_tail_sandwich,
    log_left_tail_upper,
    stirling_exponent,
)
from fragsim.params import ModelParams, as_kappa, as_q
from fragsim.predictors import (
    PredictorWindow,
    largest_depth_center,
    largest_depth_envelope_inverses,
    min_leaf_center,
    smallest_depth_envelope_inverse,
)
from fragsim.qseries import qpochhammer_prefix
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
    (lambda: qpochhammer_prefix(0.5, 2.5), DomainError),
    # a cached (0.5, 1) term table must not answer n=True
    (lambda: (perpetuity_survival(0.5, 1, 1.0), perpetuity_survival(0.5, True, 1.0)),
     DomainError),
    (lambda: ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=True), SpecError),
    (lambda: ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=1, replicas=True), SpecError),
    (lambda: ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=1, master_seed=True), SpecError),
], ids=["sweep_n_max", "seed_master", "seed_replica", "sandwich_m", "min_leaf_n",
        "qpoch_float", "qpoch_cached_bool", "spec_n_max", "spec_replicas", "spec_seed"])
def test_integer_arguments_refuse_bool_and_float(call, error):
    with pytest.raises(error, match="must be an integer"):
        call()


_BIG = 10**400  # an int no float can hold
_SPEC = ExperimentSpec(k=2, alpha=1.0, engine="brw", n_max=1)


@pytest.mark.parametrize("call, error", [
    (lambda: perpetuity_survival(0.5, 3, _BIG), DomainError),
    (lambda: perpetuity_survival_limit(0.5, _BIG), DomainError),
    (lambda: split_time_survival(0.5, 3, _BIG), DomainError),
    (lambda: gumbel_limit_cdf(0.5, _BIG), DomainError),
    (lambda: largest_depth_center(_P, _BIG), DomainError),
    (lambda: left_tail_sandwich(0.5, 3, math.nan), DomainError),
    (lambda: left_tail_sandwich(0.5, 3, _BIG), DomainError),
    (lambda: log_left_tail_upper(0.5, 3, math.inf), DomainError),
    (lambda: largest_depth_envelope_inverses(_P, math.inf), DomainError),
    (lambda: smallest_depth_envelope_inverse(_P, math.inf, 1), DomainError),
    (lambda: stirling_exponent(math.inf, 2.0, 1.0), DomainError),
    (lambda: stirling_exponent(0.5, 2.0, 0.0), DomainError),
    (lambda: stirling_exponent(1e-300, 1e300, 1e-300), DomainError),
    (lambda: stirling_exponent(1e-300, 1e200, 1e-200), DomainError),
    (lambda: stirling_exponent(0.5, 1e300, 1.0), DomainError),
    (lambda: PredictorWindow.from_center(math.nan, 1.0), DomainError),
    (lambda: PredictorWindow.from_center(1e308, 1e308), DomainError),
    (lambda: perpetuity_survival(0.5, 3, True), DomainError),
    (lambda: ModelParams(2, True), DomainError),
    (lambda: smallest_depth_envelope_inverse(_P, 1e6, True), DomainError),
    (lambda: perpetuity_survival("0.5", 3, 1.0), DomainError),
    (lambda: left_tail_exponent(0.5, "0.1"), DomainError),
    (lambda: gillespie_run(_P, 5.0, SeedSpec(0)).value_at("1"), DomainError),
    (lambda: run_experiment(_SPEC, jobs="2"), SpecError),
    (lambda: sweep_replicas(_P, 6, [SeedSpec(0)], floor=math.nan, point_generations=(6,)),
     DomainError),
], ids=["survival_big_t", "limit_big_t", "split_big_t", "gumbel_big_s", "center_big_t",
        "sandwich_nan_s", "sandwich_big_s", "log_upper_inf_s", "largest_inverse_inf_t",
        "smallest_inverse_inf_t", "stirling_inf_x", "stirling_zero_kappa",
        "stirling_nan_tiny_kappa", "stirling_nan_small_kappa", "stirling_inf_huge_y",
        "window_nan_center", "window_end_overflows",
        "survival_bool_t", "params_bool_alpha", "inverse_bool_sigma", "survival_str_q",
        "exponent_str_s", "value_at_str_t", "run_str_jobs", "sweep_nan_floor"])
def test_real_arguments_refuse_bad_values(call, error):
    with pytest.raises(error):
        call()


def test_real_arguments_keep_their_legal_edges():
    assert gumbel_limit_cdf(0.5, math.inf) == 1.0
    assert gumbel_limit_cdf(0.5, -math.inf) == 0.0
    sweep = sweep_replicas(_P, 3, [SeedSpec(0)], floor=-math.inf, point_generations=(3,))
    assert sweep.points[3][0].size == 2**3
    sweep = sweep_replicas(_P, 3, [SeedSpec(0)], floor=math.inf, point_generations=(3,))
    assert sweep.points[3][0].size == 0
    assert perpetuity_survival(0.5, 3, 0).value == 1.0
    assert gillespie_run(_P, 5.0, SeedSpec(0)).value_at(0) == (0, 0)
    assert perpetuity_survival(0.5, 3, np.float64(1.5)) == perpetuity_survival(0.5, 3, 1.5)
    assert as_q(np.float64(0.25)) == 0.25


def test_numpy_integer_scalars_are_refused():
    # as check_int refuses them, and as the JSON sidecar could not write them
    with pytest.raises(DomainError, match="t must be a finite number >= 0"):
        perpetuity_survival(0.5, 3, np.int64(2))
    with pytest.raises(SpecError, match="alpha"):
        ExperimentSpec(k=2, alpha=np.int64(2), engine="brw", n_max=1)
