"""Adaptive quadrature and the norm-trajectory integrals built on it."""

import itertools
import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import quadrature
from cocycle_lab import (
    DomainError,
    NormChoice,
    ParametricDecay,
    PreconditionError,
    QuadratureConfig,
    QuadratureDepthError,
    ShiftedGenerator,
    TabulatedDecay,
    Trivial,
    adaptive_simpson,
    diag_integral_model,
    integrate_generator,
    integrate_kernel,
    integrate_norm_trajectory,
    norm_integral_prefix,
    pure_exponential_model,
    shift_cocycle,
    sin_scalar_model,
)
from cocycle_lab.core import _log_norm, log_cocycle_norm

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)


def reference_simpson(f, a, b, cfg):
    """One interval, depth first, right half popped first: the scalar oracle.

    Bit for bit what the batched adaptive_simpson must return per interval.
    """
    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(fa, fm, fb, b - a)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(whole))
    total = 0.0
    exhausted = False
    stack = [(a, fa, 0.5 * (a + b), fm, b, fb, whole, tol, 0)]
    while stack:
        xa, ya, xm, ym, xb, yb, s_whole, loc_tol, depth = stack.pop()
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
        ylm, yrm = f(lm), f(rm)
        s_left = simpson(ya, ylm, ym, xm - xa)
        s_right = simpson(ym, yrm, yb, xb - xm)
        err = (s_left + s_right - s_whole) / 15.0
        if abs(err) <= loc_tol or xm <= xa or xb <= xm:
            total += s_left + s_right + err
        elif not math.isfinite(err):
            raise DomainError(f"integrand is not finite on [{xa}, {xb}]")
        elif depth >= cfg.max_depth:
            total += s_left + s_right + err
            exhausted = True
        else:
            half = 0.5 * loc_tol
            stack.append((xa, ya, lm, ylm, xm, ym, s_left, half, depth + 1))
            stack.append((xm, ym, rm, yrm, xb, yb, s_right, half, depth + 1))
    if exhausted:
        raise QuadratureDepthError("max_depth", partial=total)
    return total


def composite_simpson(f, a, b, panels):
    """Fixed-step Simpson rule; the independent cross-check for the adaptive path."""
    if panels < 1:
        raise PreconditionError("panels must be >= 1")
    if a == b:
        return 0.0
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([f(float(x)) for x in xs])
    h = (b - a) / panels
    return float(h / 6.0 * (ys[0] + ys[-1] + 4.0 * np.sum(ys[1::2]) + 2.0 * np.sum(ys[2:-2:2])))


def reference_value(f, a, b, cfg):
    """(value or partial, whether max_depth was hit) of reference_simpson."""
    try:
        return reference_simpson(f, a, b, cfg), False
    except QuadratureDepthError as exc:
        return exc.partial, True


def reference_integrand(xi, x, v, t0):
    """tau -> ||Phi(tau, t0, x) v|| for one float tau: exp of ``core._log_norm`` over one row of log terms."""
    with np.errstate(divide="ignore"):
        log_mags = np.log(np.abs(np.asarray(v, dtype=float)))

    def integrand(tau):
        terms = np.asarray(xi.log_factors(tau, t0, x), dtype=float) + log_mags
        return float(np.exp(_log_norm(terms[None, :], xi.norm_choice))[0])

    return integrand


def reference_segments(xi, x, v, times, cfg):
    """reference_value of each grid segment from base time times[0], one segment at a time."""
    integrand = reference_integrand(xi, x, v, times[0])
    return [reference_value(integrand, a, b, cfg) for a, b in zip(times, times[1:])]


def reference_prefix(segments):
    """The running sum of reference_segments, left to right from 0.0."""
    assert not any(hit for _, hit in segments)
    return list(itertools.accumulate((value for value, _ in segments), initial=0.0))


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


def test_config_keys_and_json():
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-11, max_depth=32)
    assert cfg.to_json_dict() == {"rel_tol": 1e-9, "abs_tol": 1e-11, "max_depth": 32}


# ---------------------------------------------------------------------------
# Simpson integrators
# ---------------------------------------------------------------------------


def test_adaptive_known_integrals():
    assert adaptive_simpson(lambda u: np.exp(3.0 * u), 0.0, 2.0, TIGHT) == pytest.approx(
        (math.exp(6.0) - 1.0) / 3.0, rel=1e-11)
    assert adaptive_simpson(np.sin, 0.0, math.pi, TIGHT) == pytest.approx(2.0, rel=1e-11)
    assert adaptive_simpson(lambda u: np.exp(-u), 0.0, 1.0, TIGHT) == pytest.approx(
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
    f = lambda u: np.exp(rate * u) + np.cos(u)
    got = adaptive_simpson(f, a, b, TIGHT)
    ref = composite_simpson(f, a, b, 512)
    assert got == pytest.approx(ref, rel=1e-8, abs=1e-10)


INTEGRANDS = {
    "exp_cos": lambda u: np.exp(0.7 * u) + np.cos(3.0 * u),
    "decaying": lambda u: np.exp(-2.0 * u) * (1.5 + np.cos(u)),
    "step": lambda u: np.where(u > 1.3, 2.0, 0.5),
}


@given(
    st.lists(st.tuples(st.floats(0.0, 4.0), st.sampled_from([0.0, 1e-9, 0.3, 1.0, 2.5])),
             min_size=1, max_size=8),
    st.sampled_from(sorted(INTEGRANDS)),
    st.sampled_from([2, 4, 48]),
)
@settings(max_examples=60, deadline=None)
def test_batched_simpson_matches_reference_bit_for_bit(pieces, name, max_depth):
    f = INTEGRANDS[name]
    cfg = QuadratureConfig(max_depth=max_depth)
    a = np.array([lo for lo, _ in pieces])
    b = a + np.array([width for _, width in pieces])
    ref = [reference_value(f, float(lo), float(hi), cfg) for lo, hi in zip(a, b)]
    calls = []

    def counted(u):
        calls.append(len(u))
        return f(u)

    try:
        got = adaptive_simpson(counted, a, b, cfg)
    except QuadratureDepthError as exc:
        got = exc.partial
        first = next(i for i, (_, hit) in enumerate(ref) if hit)
        assert str(exc).endswith(f"on [{a[first]}, {b[first]}]")
    else:
        assert not any(hit for _, hit in ref)
    assert isinstance(got, np.ndarray)
    assert got.tolist() == [value for value, _ in ref]
    # one call for the first three nodes, then one per refinement depth
    assert len(calls) <= max_depth + 2


def test_batched_simpson_scalar_and_empty_calls():
    got = adaptive_simpson(np.exp, 0.0, 1.0, TIGHT)
    assert type(got) is float
    assert got == reference_simpson(np.exp, 0.0, 1.0, TIGHT)
    assert adaptive_simpson(np.exp, np.zeros(0), np.zeros(0), TIGHT).shape == (0,)
    with pytest.raises(PreconditionError):
        adaptive_simpson(np.exp, np.zeros(2), np.ones(3), TIGHT)
    with pytest.raises(DomainError, match=r"bad integration interval \[2.0, 1.0\]"):
        adaptive_simpson(np.exp, np.array([0.0, 2.0, 5.0]), np.array([1.0, 1.0, 4.0]), TIGHT)


def test_batched_errors_name_leftmost_interval_at_shallowest_depth():
    # [0, 1] refines the sqrt cusp; [1, 2] and [2, 3] see inf at depth 0
    def f(u):
        return np.where(u > 1.5, np.inf, np.sqrt(u))

    with pytest.raises(DomainError, match=r"not finite on \[1.0, 2.0\]"):
        adaptive_simpson(f, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]), TIGHT)

    # the cusp exhausts two halvings on [0, 1]; the constant on [1, 2] does not
    def g(u):
        return np.sqrt(np.minimum(u, 1.0))

    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-14, max_depth=2)
    a, b = np.array([1.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.0])
    with pytest.raises(QuadratureDepthError, match=r"max_depth=2 on \[0.0, 1.0\]") as info:
        adaptive_simpson(g, a, b, cfg)
    ref = [reference_value(g, lo, hi, cfg) for lo, hi in zip(a.tolist(), b.tolist())]
    assert [hit for _, hit in ref] == [False, True, True]
    assert info.value.partial.tolist() == [value for value, _ in ref]


FAMILY_INTEGRANDS = {
    **INTEGRANDS,
    "cusp": lambda u: np.sqrt(np.abs(u - 1.1)),
    "overflow": lambda u: np.where(u > 3.0, np.inf, np.exp(u)),
    "spike": lambda u: np.where(np.abs(u - 1.3) < 0.02, np.nan, np.sqrt(np.abs(u - 1.25))),
}


def one_family_outcome(f, a, b, cfg):
    """("ok" | "depth" | "domain", values or message, depth) of one 1-D call.

    The depth of a DomainError is read from the call count: one call for
    the first three nodes, then one per refinement depth.
    """
    calls = []

    def counted(u):
        calls.append(len(u))
        return f(u)

    try:
        return "ok", adaptive_simpson(counted, a, b, cfg), None
    except QuadratureDepthError as exc:
        return "depth", exc.partial, str(exc)
    except DomainError as exc:
        return "domain", str(exc), len(calls) - 2


@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(FAMILY_INTEGRANDS)), st.sampled_from([0.5, 1.0, 3.0])),
        min_size=1, max_size=4,
    ),
    st.lists(st.tuples(st.floats(0.0, 4.0), st.sampled_from([0.0, 1e-9, 0.3, 1.0, 2.5])),
             min_size=1, max_size=5),
    st.randoms(use_true_random=False),
    st.sampled_from([2, 4, 48]),
)
@settings(max_examples=80, deadline=None)
def test_family_batch_matches_one_call_per_family_bit_for_bit(families, pieces, rng, max_depth):
    cfg = QuadratureConfig(max_depth=max_depth)
    rows = [[pieces[rng.randrange(len(pieces))] for _ in pieces] for _ in families]
    a = np.array([[lo for lo, _ in row] for row in rows])
    b = a + np.array([[width for _, width in row] for row in rows])
    fs = [lambda u, g=FAMILY_INTEGRANDS[name], c=scale: c * g(u) for name, scale in families]
    ref = [one_family_outcome(f, a[r], b[r], cfg) for r, f in enumerate(fs)]
    calls = []

    def batched(nodes):
        u, rows = nodes
        assert u.shape == rows.shape
        calls.append(len(u))
        # each node is asked for once, in its own family only
        out = np.empty(len(u))
        for r, f in enumerate(fs):
            out[rows == r] = f(u[rows == r])
        return out

    domain = [(depth, r) for r, (kind, _, depth) in enumerate(ref) if kind == "domain"]
    if domain:
        _, first = min(domain)
        with pytest.raises(DomainError) as info:
            adaptive_simpson(batched, a, b, cfg)
        assert str(info.value) == ref[first][1]
        return
    expected = [value for _, value, _ in ref]
    hits = [message for kind, _, message in ref if kind == "depth"]
    if hits:
        with pytest.raises(QuadratureDepthError) as info:
            adaptive_simpson(batched, a, b, cfg)
        assert str(info.value) == hits[0]
        got = info.value.partial
    else:
        got = adaptive_simpson(batched, a, b, cfg)
    assert got.shape == a.shape
    assert got.tolist() == [row.tolist() for row in expected]
    assert len(calls) <= max_depth + 2


def test_family_batch_shapes():
    f = lambda nodes: nodes[0] * (1.0 + nodes[1])
    assert adaptive_simpson(f, np.zeros((2, 0)), np.zeros((2, 0)), TIGHT).shape == (2, 0)
    assert adaptive_simpson(f, np.zeros((2, 3)), np.zeros((2, 3)), TIGHT).tolist() == [[0.0] * 3] * 2
    got = adaptive_simpson(f, np.zeros((2, 1)), np.ones((2, 1)), TIGHT)
    assert got.tolist() == [[0.5], [1.0]]
    with pytest.raises(PreconditionError):
        adaptive_simpson(f, np.zeros((2, 1, 1)), np.ones((2, 1, 1)), TIGHT)
    with pytest.raises(DomainError, match=r"bad integration interval \[1.0, 0.5\]"):
        adaptive_simpson(f, np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 0.5]]), TIGHT)


def test_composite_validation():
    with pytest.raises(PreconditionError):
        composite_simpson(math.sin, 0.0, 1.0, 0)
    assert composite_simpson(math.sin, 2.0, 2.0, 4) == 0.0


def test_depth_error_carries_partial():
    # sqrt has unbounded derivative at 0; two halvings cannot reach 1e-14
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-14, max_depth=2)
    with pytest.raises(QuadratureDepthError) as info:
        adaptive_simpson(np.sqrt, 0.0, 1.0, cfg)
    assert info.value.partial == pytest.approx(2.0 / 3.0, abs=5e-3)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_integrand_fails_before_refining(bad):
    nodes = []

    def f(u):
        nodes.extend(u)
        return np.where(u > 1.5, bad, 1.0)

    # max_depth 60 would take 2^60 halvings if the NaN error estimate refined
    with pytest.raises(DomainError, match=r"not finite on \[0.0, 2.0\]"):
        adaptive_simpson(f, 0.0, 2.0, QuadratureConfig(max_depth=60))
    assert len(nodes) == 5


# ---------------------------------------------------------------------------
# Kernel integrals
# ---------------------------------------------------------------------------


def simpson_kernel(f, alpha):
    """integral_0^1 e^{-alpha u} f(u) du by adaptive Simpson at TIGHT, one call per smooth piece.

    A table's pieces (lo, hi] are cut at its knots, and each takes f at its
    midpoint, which lies inside it; the parametric form is one piece.  The
    scale of f is taken out of each piece, so that abs_tol cannot swamp a
    small f.
    """
    if isinstance(f, ParametricDecay):
        return adaptive_simpson(lambda u: np.exp(-alpha * u) * np.exp(-f.omega * u), 0.0, 1.0, TIGHT) / f.n_tilde
    edges = [0.0, *(t for t in f.times if 0.0 < t < 1.0), 1.0]
    return math.fsum(
        f.value(0.5 * (lo + hi)) * adaptive_simpson(lambda u: np.exp(-alpha * u), lo, hi, TIGHT)
        for lo, hi in zip(edges, edges[1:])
    )


def test_kernel_constant_and_exponential():
    assert integrate_kernel(TabulatedDecay.from_values([0.0], [2.0]), 0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    got = integrate_kernel(ParametricDecay(1.0, 1.0), 1.5)
    assert got == pytest.approx(math.log((1.0 - math.exp(-2.5)) / 2.5), abs=1e-15)


def test_kernel_step_witness_pieces():
    step = TabulatedDecay.from_values([0.5, 1.0], [4.0, 2.0])
    # each piece (lo, hi] takes the value at hi: 0.5 * 4 + 0.5 * 2
    assert integrate_kernel(step, 0.0) == pytest.approx(math.log(3.0), abs=1e-15)


def test_kernel_step_witness_exponential_weight():
    step = TabulatedDecay.from_values([0.25, 2.0], [5.0, 3.0])
    exact = 5.0 * (1.0 - math.exp(-0.25)) + 3.0 * (math.exp(-0.25) - math.exp(-1.0))
    assert integrate_kernel(step, 1.0) == pytest.approx(math.log(exact), abs=1e-14)


def test_kernel_rejects_bad_inputs():
    f = ParametricDecay(1.0, 1.0)
    for alpha in (-1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="finite alpha >= 0"):
            integrate_kernel(f, alpha)
    vanishing = TabulatedDecay.from_log_values([0.0, 0.5, 1.0], [0.0, -math.inf, -math.inf])
    with pytest.raises(PreconditionError, match="vanishes"):
        integrate_kernel(vanishing, 0.0)


def test_kernel_of_a_steep_table_is_finite():
    # its values past 0 underflow to 0.0, which the linear Simpson path rejected
    f = TabulatedDecay.from_log_values([0.0, 0.25, 0.5, 1.0], [0.0, -900.0, -1800.0, -3600.0])
    assert integrate_kernel(f, 0.0) == pytest.approx(-900.0 + math.log(0.25), abs=1e-12)
    assert integrate_kernel(f, 5.0) == pytest.approx(-900.0 + math.log((1.0 - math.exp(-1.25)) / 5.0), abs=1e-12)


DECAY_TABLES = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6, unique=True).flatmap(
    lambda times: st.lists(st.floats(0.0, 20.0), min_size=len(times), max_size=len(times)).map(
        lambda drops: TabulatedDecay.from_log_values(sorted(times), -np.cumsum(drops) + drops[0])
    )
)
PARAMETRIC_DECAYS = st.builds(ParametricDecay, st.floats(1.0, 1e3), st.floats(1e-3, 50.0))


@given(st.one_of(DECAY_TABLES, PARAMETRIC_DECAYS), st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_adaptive_simpson(f, alpha):
    assert math.exp(integrate_kernel(f, alpha)) == pytest.approx(simpson_kernel(f, alpha), rel=1e-9)


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
        lambda taus: np.exp([integrate_generator(1, 0.5, tau - 1.0) for tau in taus]), 1.0, 4.0, TIGHT)
    assert got == pytest.approx(ref, rel=1e-11)


def test_trajectory_validation(pexp3_model):
    with pytest.raises(DomainError):
        integrate_norm_trajectory(pexp3_model, 2.0, Trivial(0.0), (1.0,), 1.0, TIGHT)
    with pytest.raises(PreconditionError):
        integrate_norm_trajectory(pexp3_model, 0.0, Trivial(0.0), (0.0,), 1.0, TIGHT)


@pytest.mark.parametrize("rate", [25.0, 40.0])
def test_euclidean_integrand_does_not_overflow_early(rate):
    # the squared norm e^{2 rate tau} overflowed past tau = 354.9 / rate
    xi = pure_exponential_model(rate, NormChoice.EUCLID)
    got = integrate_norm_trajectory(xi, 0.0, Trivial(0.0), (1.0,), 16.0, TIGHT)
    assert got == pytest.approx(math.expm1(16.0 * rate) / rate, rel=1e-9)


def test_euclidean_integral_keeps_a_tiny_component():
    # |v|^2 = 1e-400 underflowed to 0, so the integral over [0, 2] was exactly 0
    args = (0.0, Trivial(0.0), (1e-200,), 2.0)
    got = integrate_norm_trajectory(pure_exponential_model(1.0, NormChoice.EUCLID), *args)
    assert got > 0.0
    assert got == integrate_norm_trajectory(pure_exponential_model(1.0, NormChoice.SUM_ABS), *args)


def test_prefix_matches_single_calls(pexp3_model):
    times = [0.0, 0.5, 1.25, 2.0]
    prefix = norm_integral_prefix(pexp3_model, Trivial(0.0), (1.0,), times, TIGHT)
    assert prefix.shape == (4, 4)
    for k, t0 in enumerate(times):
        assert prefix[k, : k + 1].tolist() == [0.0] * (k + 1)
        for i in range(k + 1, len(times)):
            whole = integrate_norm_trajectory(pexp3_model, t0, Trivial(0.0), (1.0,), times[i], TIGHT)
            assert prefix[k, i] == pytest.approx(whole, rel=1e-9, abs=1e-12)
        assert np.all(np.diff(prefix[k, k:]) > 0.0)


PREFIX_CASES = {
    "sin": (sin_scalar_model, Trivial(0.0), (1.0,)),
    "shifted_exp": (lambda nc: shift_cocycle(pure_exponential_model(2.3, nc), 0.8), Trivial(0.0), (-1.7,)),
    "diag": (lambda nc: diag_integral_model([1.0, -1.0, 0.4], nc), ShiftedGenerator(1, 0.5), (1.0, -0.3, 2.0)),
    "diag9": (lambda nc: diag_integral_model(np.linspace(-2.0, 2.0, 9), nc), ShiftedGenerator(2, 0.0),
              np.linspace(0.1, 1.7, 9)),
}


@pytest.mark.parametrize("choice", list(NormChoice))
@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_prefix_matches_per_segment_reference_exactly(full_times, case, choice):
    make, x, v = PREFIX_CASES[case]
    xi = make(choice)
    got = norm_integral_prefix(xi, x, v, full_times, QuadratureConfig())
    assert got.shape == (len(full_times), len(full_times))
    for k in (0, 13, 40, 63):
        assert got[k, :k].tolist() == [0.0] * k
        assert got[k, k:].tolist() == reference_prefix(reference_segments(xi, x, v, full_times[k:], QuadratureConfig()))


def trajectory_by_one_simpson_call(xi, t0, x, v, t, cfg):
    """The integral over [t0, t] as one scalar adaptive_simpson call: the oracle
    of integrate_norm_trajectory's route through norm_integral_prefix."""
    fn = quadrature._norm_trajectory_fn(xi, np.array([float(t0)]), x, np.asarray(v, dtype=float)[None])
    return adaptive_simpson(lambda taus: fn((taus, np.zeros(len(taus), dtype=int))), t0, t, cfg)


def trajectory_outcome(integrate, *args):
    """("ok", value bits) or ("depth", message, partial bits) of one integral."""
    try:
        return "ok", integrate(*args).hex()
    except QuadratureDepthError as exc:
        assert isinstance(exc.partial, float)
        return "depth", str(exc), exc.partial.hex()


# segments up to 1 wide: wider sin segments at rel_tol 1e-8 can refine to millions of leaves
@given(st.sampled_from(sorted(PREFIX_CASES)), st.sampled_from(list(NormChoice)), st.floats(0.0, 15.0),
       st.floats(1e-3, 1.0), st.floats(1.0, 10.0), st.integers(-12, -6), st.sampled_from([3, 48]))
@settings(max_examples=60, deadline=None)
def test_trajectory_integral_matches_one_simpson_call_bit_for_bit(case, choice, t0, width, scale, log_rel, depth):
    make, x, v = PREFIX_CASES[case]
    xi, cfg = make(choice), QuadratureConfig(rel_tol=10.0**log_rel, max_depth=depth)
    args = (xi, t0, x, scale * np.asarray(v), t0 + width, cfg)
    want = trajectory_outcome(trajectory_by_one_simpson_call, *args)
    assert trajectory_outcome(integrate_norm_trajectory, *args) == want


BLOCK_CASES = {
    "sin": (sin_scalar_model, Trivial(0.0), [[1.0], [-2.5], [1e-3], [2.5]]),
    "shifted_exp": (lambda nc: shift_cocycle(pure_exponential_model(2.3, nc), 0.8), Trivial(0.0),
                    [[-1.7], [0.4]]),
    "diag2": (lambda nc: diag_integral_model([1.0, -1.0], nc), ShiftedGenerator(1, 0.5),
              [[1.0, 0.0], [0.0, 1.0], [0.6, -0.8], [-0.6, 0.8], [1.0, 0.0]]),
    "diag3": (lambda nc: diag_integral_model([1.0, -1.0, 0.4], nc), ShiftedGenerator(1, 0.5),
              [[1.0, -0.3, 2.0], [0.0, 0.0, 1.0], [-3.0, 1.0, 0.0]]),
    "diag9": (lambda nc: diag_integral_model(np.linspace(-2.0, 2.0, 9), nc), ShiftedGenerator(2, 0.0),
              [np.linspace(0.1, 1.7, 9), np.linspace(-1.0, 1.0, 9), np.eye(9)[4]]),
}


@pytest.mark.parametrize("choice", list(NormChoice))
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_prefix_of_a_vector_block_stacks_single_prefixes_exactly(full_times, case, choice):
    make, x, vectors = BLOCK_CASES[case]
    xi = make(choice)
    block = np.array(vectors, dtype=float)
    for k in (0, 40, 63, 64):  # k = 64 leaves a grid of one time
        times = full_times[k:]
        got = norm_integral_prefix(xi, x, block, times, QuadratureConfig())
        assert got.shape == (len(block), len(times), len(times))
        assert got.tolist() == [norm_integral_prefix(xi, x, v, times, QuadratureConfig()).tolist()
                                for v in block]
    assert got.tolist() == [[[0.0]]] * len(block)


@pytest.mark.parametrize("choice", list(NormChoice))
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_integrand_is_exp_of_the_scalar_log_norm(case, choice):
    make, x, vectors = BLOCK_CASES[case]
    xi, block = make(choice), np.array(vectors, dtype=float)
    rng = np.random.default_rng(7)
    t0s = np.array([0.0, 1.5, 7.25])
    fn = quadrature._norm_trajectory_fn(xi, np.repeat(t0s, len(block)), x, np.tile(block, (len(t0s), 1)))
    rows = rng.integers(0, len(t0s) * len(block), 300)
    taus = t0s[rows // len(block)] + rng.uniform(0.0, 4.0, len(rows))
    for tau, r, got in zip(taus, rows, fn((taus, rows))):
        want = math.exp(log_cocycle_norm(xi, tau, t0s[r // len(block)], x, block[r % len(block)]))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


BATCH_MODELS = {
    "sin": (sin_scalar_model, Trivial(0.0)),
    "diag": (lambda nc: diag_integral_model([1.0, -1.0, 0.4], nc), ShiftedGenerator(1, 0.5)),
    "pure_exp": (lambda nc: pure_exponential_model(-1.3, nc), Trivial(0.0)),
    "shifted_diag": (lambda nc: shift_cocycle(diag_integral_model([0.7, -0.2], nc), 0.6), ShiftedGenerator(2, 0.0)),
}


@st.composite
def signed_blocks(draw, dim):
    """Nonzero rows, then copies of some of them, each with a random sign, shuffled."""
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim).filter(any), min_size=1, max_size=3))
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from([1.0, -1.0])), max_size=3))
    block = rows + [[sign * c for c in rows[r]] for r, sign in copies]
    return np.array(draw(st.permutations(block)))


GRIDS = st.tuples(st.floats(0.0, 2.0), st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=11)).map(
    lambda start_gaps: list(itertools.accumulate(start_gaps[1], initial=start_gaps[0]))
)


@given(
    st.sampled_from(sorted(BATCH_MODELS)),
    st.sampled_from(list(NormChoice)),
    GRIDS,
    st.sampled_from([2, 4, 48]),
    st.sampled_from([1, 5, 4096]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_batch_over_base_times_matches_per_segment_reference(name, choice, times, max_depth, cap, data):
    make, x = BATCH_MODELS[name]
    xi = make(choice)
    block = data.draw(signed_blocks(xi.dimension))
    cfg = QuadratureConfig(max_depth=max_depth)
    # per (base time k, row b): each segment's (value, hit max_depth), from its own scalar loop,
    # which rows of one |v| share
    by_mags = {}
    for k in range(len(times)):
        for v in block:
            if (k, tuple(np.abs(v))) not in by_mags:
                by_mags[k, tuple(np.abs(v))] = reference_segments(xi, x, v, times[k:], cfg)
    ref = {(k, b): by_mags[k, tuple(np.abs(v))] for k in range(len(times)) for b, v in enumerate(block)}
    hits = [(k, b, j) for (k, b), segs in ref.items() for j, (_, hit) in enumerate(segs) if hit]
    # a smaller cap splits the base times into more adaptive_simpson calls
    with mock.patch.object(quadrature, "MAX_BATCH_SEGMENTS", cap):
        if hits:
            # the first hit by base time, then row, then segment, whatever the grouping
            k, _, j = min(hits)
            with pytest.raises(QuadratureDepthError, match=re.escape(f"on [{times[k + j]}, {times[k + j + 1]}]")):
                norm_integral_prefix(xi, x, block, times, cfg)
            return
        got = norm_integral_prefix(xi, x, block, times, cfg)
    assert got.shape == (len(block), len(times), len(times))
    for (k, b), segs in ref.items():
        assert got[b, k, :k].tolist() == [0.0] * k
        assert got[b, k, k:].tolist() == reference_prefix(segs)


def test_prefix_error_names_the_first_failure_of_the_first_failing_call():
    # From t0 = 226, e^{E(tau, t0)} overflows on [227, 229]; from t0 = 0 the
    # segment [2, 226] only runs out of depth, which a call reports at its end
    xi, times, cfg = sin_scalar_model(), [0.0, 2.0, 226.0, 227.0, 229.0], QuadratureConfig(max_depth=10)
    with pytest.raises(DomainError, match=r"not finite on \[227.0, 229.0\]"):
        norm_integral_prefix(xi, Trivial(0.0), (1.0,), times, cfg)
    # one base time per call: the call for t0 = 0 fails first
    with mock.patch.object(quadrature, "MAX_BATCH_SEGMENTS", 1):
        with pytest.raises(QuadratureDepthError, match=r"max_depth=10 on \[2.0, 226.0\]"):
            norm_integral_prefix(xi, Trivial(0.0), (1.0,), times, cfg)


@pytest.mark.parametrize("run, where", [
    # [2, 226] from t0 = 0: an integrand near e^690 that oscillates, and every level doubles most subintervals
    (lambda: norm_integral_prefix(sin_scalar_model(), Trivial(0.0), [1.0], [0, 2, 226, 227, 228]), "[2.0, 226.0]"),
    # the first three nodes see at most e^16, the peak near t = 14 is about e^42
    (lambda: integrate_norm_trajectory(sin_scalar_model(), 0.0, Trivial(0.0), [1.0], 16.0), "[0.0, 16.0]"),
])
def test_refinement_in_breadth_stops_at_the_live_budget(run, where):
    budget = f"the budget of {quadrature.MAX_LIVE_SUBINTERVALS} live subintervals on {where}"
    start = time.perf_counter()
    with pytest.raises(QuadratureDepthError, match=re.escape(budget)) as info:
        run()
    assert time.perf_counter() - start < 10.0
    assert np.all(np.isfinite(info.value.partial))


def test_live_budget_stops_through_the_max_depth_path():
    # A call stopped by the budget returns the partial that max_depth at that depth gives, bit for bit.
    f = lambda u: np.sqrt(np.abs(u - 1.0 / 3.0)) + np.sqrt(np.abs(u - 0.7))
    with mock.patch.object(quadrature, "MAX_LIVE_SUBINTERVALS", 8):
        with pytest.raises(QuadratureDepthError, match=r"budget of 8 live subintervals on \[0.0, 1.0\]") as info:
            adaptive_simpson(f, [0.0, 1.0], [1.0, 2.0], QuadratureConfig(rel_tol=1e-13, abs_tol=1e-16))
    partials = []
    for depth in range(1, 10):
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-16, max_depth=depth)
        with pytest.raises(QuadratureDepthError, match=rf"max_depth={depth} on \[0.0, 1.0\]") as at_depth:
            adaptive_simpson(f, [0.0, 1.0], [1.0, 2.0], cfg)
        partials.append(at_depth.value.partial.tolist())
    assert info.value.partial.tolist() in partials


def test_prefix_validation(pexp3_model):
    with pytest.raises(PreconditionError):
        norm_integral_prefix(pexp3_model, Trivial(0.0), (1.0,), [], TIGHT)
    with pytest.raises(PreconditionError):
        norm_integral_prefix(pexp3_model, Trivial(0.0), (1.0,), [0.0, 1.0, 1.0], TIGHT)
    with pytest.raises(PreconditionError):
        norm_integral_prefix(pexp3_model, Trivial(0.0), (0.0,), [0.0, 1.0], TIGHT)
    with pytest.raises(PreconditionError):
        norm_integral_prefix(pexp3_model, Trivial(0.0), [[1.0], [0.0]], [0.0, 1.0], TIGHT)


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
