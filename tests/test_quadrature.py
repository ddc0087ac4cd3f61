"""Adaptive quadrature and the norm-trajectory integrals built on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import (
    DomainError,
    PreconditionError,
    QuadratureConfig,
    QuadratureDepthError,
    ShiftedGenerator,
    Trivial,
    adaptive_simpson,
    composite_simpson,
    integrate_generator,
    integrate_kernel,
    integrate_norm_trajectory,
    norm_integral_prefix,
)

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(PreconditionError):
        QuadratureConfig(rel_tol=1e-14)
    with pytest.raises(PreconditionError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(PreconditionError):
        QuadratureConfig(max_depth=0)
    with pytest.raises(PreconditionError):
        QuadratureConfig(max_depth=61)
    with pytest.raises(PreconditionError):
        QuadratureConfig(datko_lower_limit="s")


def test_config_keys_and_json():
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-11, max_depth=32)
    assert cfg.to_json_dict() == {
        "rel_tol": 1e-9, "abs_tol": 1e-11, "max_depth": 32, "datko_lower_limit": "t0",
    }


# ---------------------------------------------------------------------------
# Simpson integrators
# ---------------------------------------------------------------------------


def test_adaptive_known_integrals():
    assert adaptive_simpson(lambda u: math.exp(3.0 * u), 0.0, 2.0, TIGHT) == pytest.approx(
        (math.exp(6.0) - 1.0) / 3.0, rel=1e-11)
    assert adaptive_simpson(math.sin, 0.0, math.pi, TIGHT) == pytest.approx(2.0, rel=1e-11)
    assert adaptive_simpson(lambda u: math.exp(-u), 0.0, 1.0, TIGHT) == pytest.approx(
        1.0 - 1.0 / math.e, rel=1e-11)
    assert adaptive_simpson(lambda u: u, 3.0, 3.0, TIGHT) == 0.0


def test_adaptive_bad_interval():
    with pytest.raises(DomainError):
        adaptive_simpson(math.sin, 1.0, 0.0, TIGHT)
    with pytest.raises(DomainError):
        adaptive_simpson(math.sin, 0.0, math.inf, TIGHT)


@given(st.floats(0.0, 4.0), st.floats(0.01, 4.0), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_adaptive_agrees_with_composite(a, width, rate):
    b = a + width
    f = lambda u: math.exp(rate * u) + math.cos(u)
    got = adaptive_simpson(f, a, b, TIGHT)
    ref = composite_simpson(f, a, b, 512)
    assert got == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_composite_validation():
    with pytest.raises(PreconditionError):
        composite_simpson(math.sin, 0.0, 1.0, 0)
    assert composite_simpson(math.sin, 2.0, 2.0, 4) == 0.0


def test_depth_error_carries_partial():
    # sqrt has unbounded derivative at 0; two halvings cannot reach 1e-14
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-14, max_depth=2)
    with pytest.raises(QuadratureDepthError) as info:
        adaptive_simpson(math.sqrt, 0.0, 1.0, cfg)
    assert info.value.partial == pytest.approx(2.0 / 3.0, abs=5e-3)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_integrand_fails_before_refining(bad):
    calls = []

    def f(u):
        calls.append(u)
        return bad if u > 1.5 else 1.0

    # max_depth 60 would take 2^60 halvings if the NaN error estimate refined
    with pytest.raises(DomainError, match=r"not finite on \[0.0, 2.0\]"):
        adaptive_simpson(f, 0.0, 2.0, QuadratureConfig(max_depth=60))
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# Kernel integrals
# ---------------------------------------------------------------------------


def test_kernel_constant_and_exponential():
    assert integrate_kernel(lambda u: 2.0, 0.0, 3.0, TIGHT) == pytest.approx(6.0, rel=1e-12)
    got = integrate_kernel(lambda u: math.exp(-u), 1.5, 1.0, TIGHT)
    assert got == pytest.approx((1.0 - math.exp(-2.5)) / 2.5, rel=1e-11)


def test_kernel_step_witness_with_breakpoints():
    from cocycle_lab.certificates import TabulatedWitness

    step = TabulatedWitness.from_values([0.5, 1.0], [2.0, 4.0])
    got = integrate_kernel(step.value, 0.0, 1.0, TIGHT, breakpoints=step.breakpoints())
    # piecewise constant is integrated exactly once the knots are split out
    assert got == pytest.approx(3.0, abs=1e-13)


def test_kernel_step_witness_exponential_weight():
    from cocycle_lab.certificates import TabulatedWitness

    step = TabulatedWitness.from_values([1.0, 2.0], [3.0, 5.0])
    got = integrate_kernel(step.value, 1.0, 2.0, TIGHT, breakpoints=step.breakpoints())
    exact = 3.0 * (1.0 - math.exp(-1.0)) + 5.0 * (math.exp(-1.0) - math.exp(-2.0))
    assert got == pytest.approx(exact, rel=1e-11)


def test_kernel_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        integrate_kernel(lambda u: 1.0, 0.0, 0.0, TIGHT)
    with pytest.raises(PreconditionError):
        integrate_kernel(lambda u: u - 0.5, 0.0, 1.0, TIGHT)  # nonpositive sample
    with pytest.raises(PreconditionError):
        integrate_kernel(lambda u: 1.0, math.nan, 1.0, TIGHT)


# ---------------------------------------------------------------------------
# Norm-trajectory integrals
# ---------------------------------------------------------------------------


def test_trajectory_pure_exponential_oracle(pexp3_model):
    got = integrate_norm_trajectory(pexp3_model, 0.0, Trivial(0.0), (1.0,), 2.0, TIGHT)
    assert got == pytest.approx((math.exp(6.0) - 1.0) / 3.0, rel=1e-10)
    shifted = integrate_norm_trajectory(pexp3_model, 1.0, Trivial(0.0), (1.0,), 2.0, TIGHT)
    assert shifted == pytest.approx((math.exp(3.0) - 1.0) / 3.0, rel=1e-10)
    assert integrate_norm_trajectory(pexp3_model, 1.0, Trivial(0.0), (1.0,), 1.0, TIGHT) == 0.0


def test_trajectory_diag_matches_closed_form_integrand(diag_model):
    x = ShiftedGenerator(1, 0.5)
    got = integrate_norm_trajectory(diag_model, 1.0, x, (1.0, 0.0), 4.0, TIGHT)
    ref = adaptive_simpson(
        lambda tau: math.exp(integrate_generator(1, 0.5, tau - 1.0)), 1.0, 4.0, TIGHT)
    assert got == pytest.approx(ref, rel=1e-11)


def test_trajectory_validation(pexp3_model):
    with pytest.raises(DomainError):
        integrate_norm_trajectory(pexp3_model, 2.0, Trivial(0.0), (1.0,), 1.0, TIGHT)
    with pytest.raises(PreconditionError):
        integrate_norm_trajectory(pexp3_model, 0.0, Trivial(0.0), (0.0,), 1.0, TIGHT)


def test_prefix_matches_single_calls(pexp3_model):
    times = [0.0, 0.5, 1.25, 2.0]
    prefix = norm_integral_prefix(pexp3_model, Trivial(0.0), (1.0,), times, TIGHT)
    assert prefix[0] == 0.0
    for i, t in enumerate(times):
        whole = integrate_norm_trajectory(pexp3_model, 0.0, Trivial(0.0), (1.0,), t, TIGHT)
        assert prefix[i] == pytest.approx(whole, rel=1e-9, abs=1e-12)
    assert np.all(np.diff(prefix) > 0.0)


def test_prefix_validation(pexp3_model):
    with pytest.raises(PreconditionError):
        norm_integral_prefix(pexp3_model, Trivial(0.0), (1.0,), [], TIGHT)
    with pytest.raises(PreconditionError):
        norm_integral_prefix(pexp3_model, Trivial(0.0), (1.0,), [0.0, 1.0, 1.0], TIGHT)
    with pytest.raises(PreconditionError):
        norm_integral_prefix(pexp3_model, Trivial(0.0), (0.0,), [0.0, 1.0], TIGHT)


@given(st.floats(0.0, 3.0), st.floats(0.01, 2.0), st.floats(0.01, 2.0))
@settings(max_examples=40, deadline=None)
def test_trajectory_additive_over_split(sin_model, t0, d1, d2):
    mid, top = t0 + d1, t0 + d1 + d2
    whole = integrate_norm_trajectory(sin_model, t0, Trivial(0.0), (1.0,), top, TIGHT)
    left = integrate_norm_trajectory(sin_model, t0, Trivial(0.0), (1.0,), mid, TIGHT)
    # the tail piece starts at mid, against the trajectory based at t0:
    # for this scalar model the factor splits as e^{E(tau, t0)} = e^{E(tau, mid)} e^{E(mid, t0)}
    import cocycle_lab.models as models

    scale = math.exp(models.sin_scalar_exponent(mid, t0))
    right = scale * integrate_norm_trajectory(sin_model, mid, Trivial(0.0), (1.0,), top, TIGHT)
    assert whole == pytest.approx(left + right, rel=1e-8, abs=1e-10)
