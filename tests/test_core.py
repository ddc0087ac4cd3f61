"""Core algebra: norms, base points, grids, law checkers, shifts."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocycle_lab import (
    CheckReport,
    Counterexample,
    DomainError,
    ExpInstabilityCertificate,
    ExpWitness,
    IntegralInstabilityCertificate,
    NormChoice,
    ParametricDecay,
    PreconditionError,
    QuadratureConfig,
    SampleGrid,
    ShiftedGenerator,
    TabulatedDecay,
    TabulatedWitness,
    Trivial,
    build_model,
    check_cocycle_laws,
    check_decay,
    check_semiflow_laws,
    certificate_to_json_dict,
    decay_to_exponential,
    estimate_exp_instability,
    estimate_instability,
    estimate_integral_instability,
    generator_value,
    integrate_generator,
    integrate_kernel,
    integrate_norm_trajectory,
    norm_integral_prefix,
    prop_shift_sufficiency,
    shift_cocycle,
)
from cocycle_lab.core import (
    _FLOW_ROUNDING,
    _log_norm,
    _report,
    _require_pair,
    base_discrepancy,
    format_vector,
    log_cocycle_norm,
    log_norms,
)
from cocycle_lab.models import diag_integral_model, pure_exponential_model, sin_scalar_model

from conftest import grid_for, log_mags, plain_norm, row_sink, triples

times_st = st.floats(0.0, 30.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def kernel_norm(v, choice):
    """||v|| through ``core._log_norm``, the package's one norm kernel."""
    with np.errstate(divide="ignore"):
        return math.exp(_log_norm(np.log(np.abs(np.asarray([v], dtype=float))), choice)[0])


def test_log_norm_values():
    v = [3.0, -4.0]
    assert kernel_norm(v, NormChoice.SUM_ABS) == pytest.approx(7.0, rel=1e-14)
    assert kernel_norm(v, NormChoice.EUCLID) == pytest.approx(5.0, rel=1e-14)
    assert kernel_norm(v, NormChoice.MAX_ABS) == 4.0
    assert kernel_norm([0.0, 0.0], NormChoice.EUCLID) == 0.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
       st.floats(-1e3, 1e3),
       st.sampled_from(list(NormChoice)))
@settings(max_examples=200)
def test_log_norm_homogeneity(v, c, choice):
    lhs = kernel_norm([c * x for x in v], choice)
    rhs = abs(c) * kernel_norm(v, choice)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
       st.sampled_from(list(NormChoice)))
@example([0.0, 0.0, 899059.0, 999999.5156592184, 1.5156592184212059],
         [0.0, 295247.0, 999999.5156592184, 999999.5156592184, 1.5156592184212059],
         NormChoice.SUM_ABS)  # a left-to-right float sum broke the linear-space bound by 2 ulp
@settings(max_examples=200)
def test_log_norm_triangle(u, v, choice):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    s = [a + b for a, b in zip(u, v)]
    # the log-sum-exp rounds the log, so the bound holds to a relative tolerance
    assert kernel_norm(s, choice) <= (kernel_norm(u, choice) + kernel_norm(v, choice)) * (1 + 1e-12) + 1e-9


# ---------------------------------------------------------------------------
# Base points
# ---------------------------------------------------------------------------


def test_base_point_validation():
    with pytest.raises(PreconditionError):
        Trivial(-0.5)
    with pytest.raises(PreconditionError):
        Trivial(math.inf)
    with pytest.raises(PreconditionError):
        ShiftedGenerator(0, 0.0)
    with pytest.raises(PreconditionError):
        ShiftedGenerator(1, -1.0)


def test_base_point_labels():
    assert Trivial(0.0).label() == "trivial(0)"
    assert ShiftedGenerator(2, 1.5).label() == "x2^1.5"


def test_base_discrepancy():
    assert base_discrepancy(Trivial(1.0), Trivial(3.0)) == 2.0
    assert base_discrepancy(ShiftedGenerator(1, 0.0), ShiftedGenerator(1, 2.0)) == 2.0
    assert base_discrepancy(ShiftedGenerator(1, 0.0), ShiftedGenerator(2, 0.0)) == math.inf
    assert base_discrepancy(Trivial(0.0), ShiftedGenerator(1, 0.0)) == math.inf


# ---------------------------------------------------------------------------
# Sample grids
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(PreconditionError):
        SampleGrid.create([0.0, 1.0, 1.0], [Trivial(0.0)], [(1.0,)])
    with pytest.raises(PreconditionError):
        SampleGrid.create([-1.0, 0.0], [Trivial(0.0)], [(1.0,)])
    with pytest.raises(PreconditionError):
        SampleGrid.create([0.0, 1.0], [Trivial(0.0)], [(0.0, 0.0)])
    with pytest.raises(PreconditionError, match="grid nonempty"):
        SampleGrid.create([], [Trivial(0.0)], [(1.0,)])


def test_grid_checks_itself_however_it_is_built():
    # the rules sit in __post_init__, so no caller has to ask again
    grid = SampleGrid.create([0.0, 1.0], [Trivial(0.0)], [(1.0, 0.0)])
    with pytest.raises(PreconditionError, match="grid nonempty"):
        SampleGrid(times=(), base_points=grid.base_points, vectors=grid.vectors)
    with pytest.raises(PreconditionError, match="grid nonempty"):
        dataclasses.replace(grid, vectors=())
    with pytest.raises(PreconditionError, match="strictly increasing"):
        dataclasses.replace(grid, times=(1.0, 0.0))
    with pytest.raises(PreconditionError, match="one length"):
        dataclasses.replace(grid, vectors=((1.0, 0.0), (1.0,)))


def test_grid_hash_sensitivity():
    g1 = SampleGrid.create([0.0, 1.0], [Trivial(0.0)], [(1.0,)])
    g2 = SampleGrid.create([0.0, 1.0], [Trivial(0.0)], [(1.0,)])
    g3 = SampleGrid.create([0.0, 1.5], [Trivial(0.0)], [(1.0,)])
    g4 = SampleGrid.create([0.0, 1.0], [Trivial(0.0)], [(2.0,)])
    assert g1.grid_hash == g2.grid_hash
    assert g1.grid_hash != g3.grid_hash
    assert g1.grid_hash != g4.grid_hash


def test_format_vector():
    assert format_vector((1.0, -0.5)) == "[1,-0.5]"


# ---------------------------------------------------------------------------
# Evaluation wrappers
# ---------------------------------------------------------------------------


def eval_semiflow(xi, t, s, x):
    """The semiflow at one pair, behind the scalar reference's domain check."""
    _require_pair(t, s)
    return xi.semiflow(t, s, x)


def test_eval_domain_errors(sin_model):
    with pytest.raises(DomainError):
        eval_semiflow(sin_model, 1.0, 2.0, Trivial(0.0))
    with pytest.raises(DomainError):
        log_norms(sin_model, 2.0, -1.0, Trivial(0.0), log_mags([(1.0,)]))
    with pytest.raises(DomainError, match="model dimension is 1"):
        log_norms(sin_model, 2.0, 1.0, Trivial(0.0), log_mags([(1.0, 2.0)]))


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=100)
def test_log_norm_matches_direct_eval(diag_model, s, dt):
    t = s + dt
    x = ShiftedGenerator(2, 0.25)
    v = np.array([0.7, -1.3])
    direct = plain_norm(v * np.exp(diag_model.log_factors(t, s, x)), diag_model.norm_choice)
    assert log_cocycle_norm(diag_model, t, s, x, v) == pytest.approx(math.log(direct), abs=1e-10)


def test_log_norm_zero_image():
    xi = build_model({"kind": "pure_exponential", "rate": 0.0})
    dead = type(xi)(
        semiflow=xi.semiflow,
        dimension=1,
        log_factors=lambda t, s, x: np.full((1,) + np.shape(t - s), -math.inf),
        norm_choice=xi.norm_choice,
        descriptor={},
    )
    assert log_cocycle_norm(dead, 1.0, 0.0, Trivial(0.0), (1.0,)) == -math.inf
    with pytest.raises(PreconditionError, match="cocycle image vanished"):
        log_norms(dead, np.array([1.0]), 0.0, Trivial(0.0), log_mags([(1.0,)]))


@pytest.mark.parametrize("choice", list(NormChoice))
def test_scalar_log_norm_of_the_zero_vector(choice):
    xi = diag_integral_model([1.0, -1.0], choice)
    assert log_cocycle_norm(xi, 1.0, 0.0, ShiftedGenerator(1, 0.0), (0.0, 0.0)) == -math.inf


REFUSALS = {
    "log_cocycle_norm_wrong_shape": (
        lambda: log_cocycle_norm(pure_exponential_model(1.0), 1.0, 0.0, Trivial(0.0), (1.0, 2.0)),
        DomainError, r"^vector has shape \(2,\), model dimension is 1$"),
    "log_cocycle_norm_infinite_time": (
        lambda: log_cocycle_norm(pure_exponential_model(1.0), math.inf, 0.0, Trivial(0.0), (1.0,)),
        DomainError, r"^times must be finite, got \(t=inf, s=0.0\)$"),
    "grid_infinite_component": (
        lambda: SampleGrid.create([0.0], [Trivial(0.0)], [(1.0, math.inf)]),
        PreconditionError, r"^grid vector component must be a finite number, got inf$"),
    "semiflow_laws_negative_tol": (
        lambda: check_semiflow_laws(pure_exponential_model(1.0), SampleGrid.create([0.0], [Trivial(0.0)], [(1.0,)]),
                                    tol=-1.0),
        PreconditionError, r"^margin tolerance must be finite and >= 0, got -1.0$"),
    "diag_nan_rate": (
        lambda: diag_integral_model([math.nan]),
        PreconditionError, r"^diag_integral alpha must be a finite number, got nan$"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_paths(name):
    call, error, match = REFUSALS[name]
    with pytest.raises(error, match=match):
        call()


# Every scalar argument follows the number rule of a document field: a float or an int within the
# float range, but no bool, no numpy scalar other than float64, and no nan or inf.  A row gives the
# call, the name its message gives the argument, and the values its bound refuses besides those.
XI, GRID = pure_exponential_model(1.0), SampleGrid.create([0.0, 1.0], [Trivial(0.0)], [(1.0,)])
F, POSITIVE, AT_LEAST_0 = ParametricDecay(2.0, 1.0), (0.0, -1.0), (-1.0,)
SCALAR_ARGUMENTS = {
    "ExpWitness.coef": (lambda v: ExpWitness(v, 0.0), "witness coefficient", POSITIVE),
    "ExpWitness.rate": (lambda v: ExpWitness(1.0, v), "witness rate", ()),
    "ParametricDecay.n_tilde": (lambda v: ParametricDecay(v, 1.0), "n_tilde", POSITIVE),
    "ParametricDecay.omega": (lambda v: ParametricDecay(1.0, v), "omega", POSITIVE),
    "integrate_kernel.alpha": (lambda v: integrate_kernel(F, v), "alpha", AT_LEAST_0),
    "ExpInstabilityCertificate.nu": (lambda v: ExpInstabilityCertificate(ExpWitness(2.0, 0.0), v), "nu", POSITIVE),
    "ExpInstabilityCertificate.growth_cap": (
        lambda v: ExpInstabilityCertificate(ExpWitness(2.0, 0.0), 1.0, growth_cap=v), "growth_cap", POSITIVE),
    "decay_to_exponential.mu": (lambda v: decay_to_exponential(F, v), "pivot time mu", POSITIVE),
    "estimate_instability.headroom": (lambda v: estimate_instability(XI, GRID, headroom=v), "headroom", POSITIVE),
    "estimate_exp_instability.headroom": (
        lambda v: estimate_exp_instability(XI, GRID, headroom=v), "headroom", POSITIVE),
    "estimate_exp_instability.growth_cap": (
        lambda v: estimate_exp_instability(XI, GRID, growth_cap=v), "growth_cap", POSITIVE),
    "estimate_integral_instability.headroom": (
        lambda v: estimate_integral_instability(XI, GRID, headroom=v), "headroom", POSITIVE),
    "prop_shift_sufficiency.alpha": (
        lambda v: prop_shift_sufficiency(v, IntegralInstabilityCertificate(ExpWitness(1.0, 0.0)), F, XI, GRID),
        "alpha", POSITIVE),
    "shift_cocycle.gamma": (lambda v: shift_cocycle(XI, v), "shift parameter", ()),
    "check_decay.tol": (lambda v: check_decay(XI, F, GRID, tol=v), "margin tolerance", AT_LEAST_0),
    "QuadratureConfig.rel_tol": (lambda v: QuadratureConfig(rel_tol=v), "rel_tol", POSITIVE),
    "QuadratureConfig.abs_tol": (lambda v: QuadratureConfig(abs_tol=v), "abs_tol", POSITIVE),
    "generator_value.sigma": (lambda v: generator_value(1, v, 0.0), "generator shift", AT_LEAST_0),
    "integrate_generator.length": (lambda v: integrate_generator(1, 0.0, v), "integration length", AT_LEAST_0),
    "Trivial.value": (Trivial, "Trivial base point value", AT_LEAST_0),
    "ShiftedGenerator.sigma": (lambda v: ShiftedGenerator(1, v), "generator shift", AT_LEAST_0),
    "generator_value.t": (lambda v: generator_value(1, 0.0, v), "generator times", AT_LEAST_0),
    "integrate_norm_trajectory.t0": (
        lambda v: integrate_norm_trajectory(XI, v, Trivial(0.0), [1.0], 2.0), "trajectory start t0", AT_LEAST_0),
    "integrate_norm_trajectory.t": (
        lambda v: integrate_norm_trajectory(XI, 0.0, Trivial(0.0), [1.0], v), "trajectory end t", AT_LEAST_0),
}


@pytest.mark.parametrize("site", sorted(SCALAR_ARGUMENTS))
def test_scalar_arguments_follow_the_number_rule(site):
    call, name, bound = SCALAR_ARGUMENTS[site]
    for value in (True, np.bool_(True), np.float32(1.0), np.int64(1), 10**400, 10**5000, math.nan, math.inf, *bound):
        with pytest.raises(PreconditionError, match=name):
            call(value)
    for value in (1, 1.5, np.float64(1.5)):
        call(value)


# A coordinate (a base point's, or a generator time) may also be a float64 array, as the semiflow and
# the law checks build it, of numbers finite and >= 0; no other array passes.
@pytest.mark.parametrize("make", [Trivial, lambda a: ShiftedGenerator(1, a), lambda a: generator_value(1, 0.0, a)],
                         ids=["Trivial", "ShiftedGenerator", "generator_value"])
def test_coordinates_take_only_float64_arrays(make):
    good = np.array([0.0, 0.5, 2.0])
    for bad in (good.astype(np.int64), good.astype(np.float32), good.astype(bool),
                np.array([0.5, math.nan]), np.array([0.5, math.inf]), np.array([0.5, -1.0])):
        with pytest.raises(PreconditionError, match="must be finite and >= 0, got array"):
            make(bad)
    got = make(good)
    if isinstance(got, np.ndarray):
        # x_1(t) = 1/3 + e^{-t}/12 entry by entry, and a list gives the same values
        want = 1.0 / 3.0 + (1.0 / 12.0) * np.exp(-(good + 0.0))
        assert got.tolist() == want.tolist() == make(good.tolist()).tolist()
        with pytest.raises(PreconditionError, match="^generator times must be finite and >= 0, got '1'$"):
            make("1")
    else:
        assert (got.value if isinstance(got, Trivial) else got.sigma) is good


# Every list-of-numbers argument follows the item rule of a document list: each item a float (numpy
# float64 included) or an int within the float range, but no bool, string or other numpy scalar.  A
# row gives the call on a sequence, the name its messages give the argument, valid items, a key of
# the result, and whether the argument is a time axis (finite, >= 0 and strictly increasing).
KNOTS, LINEAR, LOGS = [0.0, 1.0, 2.5], [3.0, 2.0, 1.5], [1.0, 0.5, 0.25]
SEQUENCE_ARGUMENTS = {
    "SampleGrid.create.times": (lambda xs: SampleGrid.create(xs, [Trivial(0.0)], [(1.0,)]), "grid times", KNOTS,
                                lambda g: (g.times, g.vectors, g.grid_hash), True),
    "SampleGrid.create.vector": (lambda xs: SampleGrid.create([0.0, 1.0], [Trivial(0.0)], [xs]), "grid vectors entry",
                                 [1.0, -0.5, 2.0], lambda g: (g.times, g.vectors, g.grid_hash), False),
    "SampleGrid": (lambda xs: SampleGrid(xs, (Trivial(0.0),), ((1.0,),)), "grid times", KNOTS,
                   lambda g: (g.times, g.vectors, g.grid_hash), True),
    "TabulatedWitness.from_values.times": (lambda xs: TabulatedWitness.from_values(xs, LINEAR), "witness knot times",
                                           KNOTS, dataclasses.astuple, True),
    "TabulatedWitness.from_values.values": (lambda xs: TabulatedWitness.from_values(KNOTS, xs), "witness values",
                                            LINEAR, dataclasses.astuple, False),
    "TabulatedWitness.from_log_values.times": (lambda xs: TabulatedWitness.from_log_values(xs, LOGS),
                                               "witness knot times", KNOTS, dataclasses.astuple, True),
    "TabulatedWitness.from_log_values.logs": (lambda xs: TabulatedWitness.from_log_values(KNOTS, xs),
                                              "witness log-values", LOGS, dataclasses.astuple, False),
    "TabulatedDecay.from_values": (lambda xs: TabulatedDecay.from_values(KNOTS, xs), "witness values", LOGS,
                                   dataclasses.astuple, False),
    "estimate_exp_instability.nu_candidates": (lambda xs: estimate_exp_instability(XI, GRID, nu_candidates=xs),
                                               "nu candidates", [0.5, 1.0, 2.0], certificate_to_json_dict, False),
    "diag_integral_model": (diag_integral_model, "diag_integral alphas", [1.0, -1.0, 0.5], lambda m: m.descriptor, False),
    "integrate_norm_trajectory.v": (lambda xs: integrate_norm_trajectory(diag_integral_model(LOGS), 0.0,
                                                                         ShiftedGenerator(1), xs, 1.0),
                                    "trajectory vector", LINEAR, lambda r: r, False),
    "norm_integral_prefix.times": (lambda xs: norm_integral_prefix(XI, Trivial(0.0), np.zeros(1), xs), "times", KNOTS,
                                   lambda p: p.tolist(), True),
}


def only_floats(key) -> bool:
    """Whether every number in ``key`` (nested tuples, lists and dicts) is a plain float."""
    if isinstance(key, (tuple, list)):
        return all(map(only_floats, key))
    if isinstance(key, dict):
        return all(map(only_floats, key.values()))
    return type(key) is float or isinstance(key, str)


@pytest.mark.parametrize("site", sorted(SEQUENCE_ARGUMENTS))
def test_sequence_arguments_follow_the_number_rule(site):
    call, name, valid, key, axis = SEQUENCE_ARGUMENTS[site]
    for item in (True, np.bool_(True), "1.5", 10**400, 10**5000, np.float32(1.0), np.int64(1)):
        with pytest.raises(PreconditionError, match=f"^{name} must be a list of numbers"):
            call([valid[0], item, *valid[2:]])
    for array in (np.asarray(valid, dtype=np.float32), np.asarray(valid).astype(np.int64)):
        with pytest.raises(PreconditionError, match=f"^{name} must be a list of numbers$"):
            call(array)
    for bad in ([0.0, 1.0, math.inf], [0.0, 1.0, math.nan], [-1.0, 0.0, 1.0], [0.0, 0.0, 1.0]) if axis else ():
        with pytest.raises(PreconditionError, match=f"^{name} must be (finite and >= 0|strictly increasing)"):
            call(bad)
    # a list, a tuple and a float64 array give one result, held as plain floats
    got = [key(call(form)) for form in (list(valid), tuple(valid), np.array(valid))]
    assert got[0] == got[1] == got[2] and only_floats(got[0])


def _with_log_factors(xi, log_factors):
    return dataclasses.replace(xi, log_factors=log_factors)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_log_norms_reject_nonfinite_log_factors(bad):
    xi = _with_log_factors(pure_exponential_model(0.0),
                           lambda t, s, x: np.where(t - s >= 3.0, bad, 0.0)[None])
    with pytest.raises(DomainError, match=r"at \(t=4.0, s=0.0\) are not all finite"):
        log_norms(xi, np.array([1.0, 4.0, 5.0]), 0.0, Trivial(0.0), log_mags([(1.0,)]))


def test_log_norms_keep_a_vanished_component(diag_model):
    # a -inf factor is a component that vanished; the other one carries the norm
    xi = _with_log_factors(diag_model, lambda t, s, x: np.stack(
        np.broadcast_arrays(np.full(np.shape(t - s), -math.inf), t - s)))
    got = log_norms(xi, np.array([1.0, 2.0]), 0.0, ShiftedGenerator(1, 0.0), log_mags([(1.0, 1.0)]))
    assert got.tolist() == [[1.0, 2.0]]


def test_cocycle_laws_reject_nonfinite_log_factors():
    # a vanished component leaves the relative residual undefined, so the
    # laws reject -inf as well as +inf and NaN
    for bad in (math.inf, -math.inf, math.nan):
        xi = _with_log_factors(pure_exponential_model(0.0),
                               lambda t, s, x, bad=bad: np.where(t - s >= 1.5, bad, 0.0)[None])
        g = SampleGrid.create([0.0, 1.0, 2.0], [Trivial(0.0)], [(1.0,)])
        with pytest.raises(DomainError, match=r"at \(t=2.0, s=0.0\) are not all finite"):
            check_cocycle_laws(xi, g)


# ---------------------------------------------------------------------------
# Batched log norms against the scalar reference
# ---------------------------------------------------------------------------

pair_st = st.tuples(st.floats(0.0, 12.0), st.floats(0.0, 12.0)).map(
    lambda p: (p[0] + p[1], p[0])
)
vector_st = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=4).filter(
    lambda v: any(c != 0.0 for c in v)
)


def _assert_matches_reference(xi, x, pairs, vectors):
    t = np.array([p[0] for p in pairs])
    s = np.array([p[1] for p in pairs])
    got = log_norms(xi, t, s, x, log_mags(vectors))
    assert got.shape == (len(vectors), len(pairs))
    for b, v in enumerate(vectors):
        for q, (tq, sq) in enumerate(pairs):
            want = log_cocycle_norm(xi, tq, sq, x, v)
            assert got[b, q] == pytest.approx(want, rel=0.0, abs=1e-12)


@given(st.lists(pair_st, min_size=1, max_size=6), st.sampled_from(list(NormChoice)),
       st.floats(-3.0, 3.0), st.sampled_from(["sin", "pexp"]))
@settings(max_examples=100, deadline=None)
def test_log_norms_match_scalar_reference_scalar_models(pairs, choice, gamma, kind):
    xi = sin_scalar_model(choice) if kind == "sin" else pure_exponential_model(2.5, choice)
    _assert_matches_reference(shift_cocycle(xi, gamma), Trivial(0.0), pairs, [(1.0,), (-3.5,)])


@given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4), st.integers(1, 6),
       st.floats(0.0, 5.0), st.lists(pair_st, min_size=1, max_size=6),
       st.sampled_from(list(NormChoice)), st.data())
@settings(max_examples=100, deadline=None)
def test_log_norms_match_scalar_reference_diag(alphas, n, sigma, pairs, choice, data):
    xi = diag_integral_model(alphas, choice)
    vectors = data.draw(st.lists(
        vector_st.map(lambda v: (v * len(alphas))[: len(alphas)]).filter(any),
        min_size=1, max_size=3))
    _assert_matches_reference(xi, ShiftedGenerator(n, sigma), pairs, vectors)


def test_log_norms_shape_and_domain(sin_model, diag_model):
    x = ShiftedGenerator(1, 0.0)
    grid_t = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
    assert log_norms(diag_model, grid_t, 0.5, x, log_mags([(1.0, 0.0)])).shape == (1, 2, 3)
    assert log_norms(diag_model, 2.0, 1.0, x, log_mags([(1.0, 0.0), (0.0, 1.0)])).shape == (2,)
    assert diag_model.log_factors(grid_t, 0.5, x).shape == (2, 2, 3)
    assert sin_model.log_factors(1.0, 0.0, Trivial(0.0)).shape == (1,)
    with pytest.raises(DomainError):
        log_norms(sin_model, np.array([1.0, 0.5]), 1.0, Trivial(0.0), log_mags([(1.0,)]))
    with pytest.raises(DomainError):
        log_norms(sin_model, np.array([1.0, np.nan]), 0.0, Trivial(0.0), log_mags([(1.0,)]))
    with pytest.raises(DomainError):
        log_norms(sin_model, 1.0, 0.0, Trivial(0.0), log_mags([(1.0, 2.0)]))


# ---------------------------------------------------------------------------
# Shifted systems
# ---------------------------------------------------------------------------


@given(st.floats(0.0, 8.0), st.floats(0.0, 8.0), st.floats(-2.0, 4.0))
@settings(max_examples=150)
def test_shift_scales_norm(sin_model, s, dt, gamma):
    t = s + dt
    shifted = shift_cocycle(sin_model, gamma)
    base = log_cocycle_norm(sin_model, t, s, Trivial(0.0), (1.0,))
    got = log_cocycle_norm(shifted, t, s, Trivial(0.0), (1.0,))
    assert got == pytest.approx(base - gamma * (t - s), rel=1e-12, abs=1e-9)


def test_shift_composes_and_identity(pexp3_model):
    double = shift_cocycle(shift_cocycle(pexp3_model, 1.0), 0.5)
    single = shift_cocycle(pexp3_model, 1.5)
    a = log_cocycle_norm(double, 3.0, 1.0, Trivial(0.0), (1.0,))
    b = log_cocycle_norm(single, 3.0, 1.0, Trivial(0.0), (1.0,))
    assert a == pytest.approx(b, abs=1e-12)
    assert shift_cocycle(pexp3_model, 0.0).descriptor["gamma"] == 0.0
    with pytest.raises(PreconditionError):
        shift_cocycle(pexp3_model, math.nan)


def test_shifted_laws_still_hold(diag_model, short_times):
    shifted = shift_cocycle(diag_model, 0.5)
    g = grid_for(diag_model, short_times)
    assert check_semiflow_laws(shifted, g).passed
    assert check_cocycle_laws(shifted, g).passed


# ---------------------------------------------------------------------------
# Law checkers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["sin_scalar", "pure_exponential", "diag_integral"])
def test_laws_pass_on_builtins(kind, short_times):
    desc = {"kind": kind}
    if kind == "pure_exponential":
        desc["rate"] = 3.0
    if kind == "diag_integral":
        desc["alphas"] = [1.0, -1.0]
    xi = build_model(desc)
    g = grid_for(xi, short_times)
    r1 = check_semiflow_laws(xi, g)
    r2 = check_cocycle_laws(xi, g)
    assert r1.passed and r1.worst_margin >= -1e-9
    assert r2.passed and r2.worst_margin >= -1e-9


def test_laws_fail_on_broken_fixtures(short_times):
    broken_flow = build_model({"kind": "broken_semiflow"})
    g = grid_for(broken_flow, short_times)
    assert not check_semiflow_laws(broken_flow, g).passed
    broken_fiber = build_model({"kind": "broken_cocycle"})
    g = grid_for(broken_fiber, short_times)
    report = check_cocycle_laws(broken_fiber, g)
    assert not report.passed
    assert len(report.counterexamples) >= 1
    # the composition residual is relative, so it is norm-scale free
    assert report.worst_margin < -1e-6


def test_broken_cocycle_keeps_valid_semiflow(short_times):
    xi = build_model({"kind": "broken_cocycle"})
    assert check_semiflow_laws(xi, grid_for(xi, short_times)).passed


def test_law_counterexamples_sorted(short_times):
    xi = build_model({"kind": "broken_semiflow"})
    report = check_semiflow_laws(xi, grid_for(xi, short_times))
    keys = [c.sort_key() for c in report.counterexamples]
    assert keys == sorted(keys)


def _bent(t, s, x):
    # lf(t, s) = (t - s) + 0.1 (t - s)^2: zero at t = s, but not additive
    return np.asarray((t - s) + 0.1 * (t - s) ** 2)[None]


def test_cocycle_laws_read_log_factors(short_times):
    good = pure_exponential_model(1.0)
    bent = dataclasses.replace(good, log_factors=_bent)
    g = grid_for(good, short_times)
    assert check_cocycle_laws(good, g).passed
    report = check_cocycle_laws(bent, g)
    assert not report.passed
    assert report.worst_margin < -0.5
    assert all(c.t > c.s > c.t0 for c in report.counterexamples)


def _reference_law_rows(xi, grid):
    """Cocycle law samples one at a time, with Phi applied in linear space."""

    def phi(t, s, x, v):
        return [c * math.exp(g) for c, g in zip(v, xi.log_factors(t, s, x).tolist())]

    def rel(a, b):
        diff = [p - q for p, q in zip(a, b)]
        return -plain_norm(diff, xi.norm_choice) / plain_norm(b, xi.norm_choice)

    rows, times = [], grid.times
    for x in grid.base_points:
        labels = [(x.label(), format_vector(v)) for v in grid.vectors]
        for v, label in zip(grid.vectors, labels):
            rows += [(t, t, t, *label, rel(phi(t, t, x, v), v)) for t in times]
        for k, t0 in enumerate(times):
            for v, label in zip(grid.vectors, labels):
                for j in range(k, len(times)):
                    s, mid = times[j], xi.semiflow(times[j], t0, x)
                    for t in times[j:]:
                        through = phi(t, s, mid, phi(s, t0, x, v))
                        rows.append((t, s, t0, *label, rel(through, phi(t, t0, x, v))))
    return rows


# components the linear-space reference can square without underflow
law_component_st = st.one_of(st.just(0.0), st.floats(1e-3, 50.0), st.floats(-50.0, -1e-3))


@given(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=5).map(lambda ts: sorted(set(ts))),
       st.sampled_from(["sin", "diag", "bent-diag", "pexp", "bent"]),
       st.sampled_from(list(NormChoice)), st.data())
@settings(max_examples=100, deadline=None)
def test_cocycle_law_margins_match_per_sample_reference(times, kind, choice, data):
    if kind in ("diag", "bent-diag"):
        alphas = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3))
        xi = diag_integral_model(alphas, choice)
        if kind == "bent-diag":
            # per-component curvature: the gap differs across components,
            # so the weights |v| exp(lf(t, t0, x)) decide the residual
            curv = np.array(data.draw(st.lists(st.floats(-0.2, 0.2), min_size=len(alphas),
                                               max_size=len(alphas))))
            lf = xi.log_factors
            xi = dataclasses.replace(
                xi, log_factors=lambda t, s, x: lf(t, s, x) + np.multiply.outer(curv, (t - s) ** 2))
        bases = data.draw(st.lists(st.builds(ShiftedGenerator, st.integers(1, 4), st.floats(0.0, 3.0)),
                                   min_size=1, max_size=2))
    else:
        if kind == "sin":
            xi = sin_scalar_model(choice)
        else:
            xi = pure_exponential_model(data.draw(st.floats(-3.0, 3.0)), choice)
            xi = dataclasses.replace(xi, log_factors=_bent) if kind == "bent" else xi
        xi = shift_cocycle(xi, data.draw(st.floats(-2.0, 2.0)))
        bases = data.draw(st.lists(st.builds(Trivial, st.floats(0.0, 5.0)), min_size=1, max_size=2))
    vectors = data.draw(st.lists(
        st.lists(law_component_st, min_size=xi.dimension, max_size=xi.dimension).filter(any),
        min_size=1, max_size=3))
    grid = SampleGrid.create(times, bases, vectors)
    rows = []
    report = check_cocycle_laws(xi, grid, 1e-9, row_sink(rows))
    want = _reference_law_rows(xi, grid)
    assert report.samples_checked == len(want) == len(rows)
    assert [r[:5] for r in rows] == [w[:5] for w in want]
    for got, ref in zip(rows, want):
        assert got[5] == pytest.approx(ref[5], rel=0.0, abs=1e-12)


def _reference_semiflow_rows(xi, grid, rounding=_FLOW_ROUNDING):
    """Semiflow law samples one at a time, through the domain-checked eval_semiflow.

    Each discrepancy is shrunk toward 0 by ``rounding`` times 2 (t - t0)
    plus the coordinates involved; ``rounding=0`` gives the raw margins.
    """
    def margin(a, b, span, *points):
        bound = rounding * 2.0 * span + sum(rounding * (p.value if isinstance(p, Trivial) else p.sigma)
                                            for p in points)
        return -max(base_discrepancy(a, b) - bound, 0.0)

    rows, times = [], grid.times
    for x in grid.base_points:
        label = (x.label(), "-")
        for t in times:
            same = eval_semiflow(xi, t, t, x)
            rows.append((t, t, t, *label, margin(same, x, 0.0, same, x)))
        for k, t0 in enumerate(times):
            for j in range(k, len(times)):
                s, mid = times[j], eval_semiflow(xi, times[j], t0, x)
                for t in times[j:]:
                    through, direct = eval_semiflow(xi, t, s, mid), eval_semiflow(xi, t, t0, x)
                    rows.append((t, s, t0, *label, margin(through, direct, t - t0, mid, through, direct)))
    return rows


def _bits(rows):
    return [(*r[:5], float(r[5]).hex()) for r in rows]


@given(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6).map(lambda ts: sorted(set(ts))),
       st.sampled_from(["sin", "pexp", "diag", "broken_semiflow", "broken_cocycle"]),
       st.floats(-2.0, 2.0), st.data())
@settings(max_examples=100, deadline=None)
def test_semiflow_law_margins_match_per_sample_reference(times, kind, gamma, data):
    xi = build_model({"sin": {"kind": "sin_scalar"}, "pexp": {"kind": "pure_exponential", "rate": 1.5},
                      "diag": {"kind": "diag_integral", "alphas": [1, -2]}}.get(kind, {"kind": kind}))
    xi = shift_cocycle(xi, gamma) if gamma else xi
    if kind in ("diag", "broken_semiflow"):
        base_st = st.builds(ShiftedGenerator, st.integers(1, 4), st.floats(0.0, 30.0))
    else:
        base_st = st.builds(Trivial, st.floats(0.0, 1e3))
    grid = SampleGrid.create(times, data.draw(st.lists(base_st, min_size=1, max_size=2)),
                             [[1.0] * xi.dimension])
    rows = []
    report = check_semiflow_laws(xi, grid, 1e-9, row_sink(rows))
    want = _reference_semiflow_rows(xi, grid)
    assert report.samples_checked == len(want)
    assert _bits(rows) == _bits(want)
    failing = sorted(r[:5] for r in want if r[5] < -1e-9)
    assert [c.sort_key() for c in report.counterexamples] == failing


def test_broken_fixtures_fail_where_the_reference_fails(short_times):
    # The roundoff allowances must not hide a broken law.
    for kind in ("broken_cocycle", "broken_semiflow"):
        xi = build_model({"kind": kind})
        grid = grid_for(xi, short_times)
        report = check_cocycle_laws(xi, grid)
        failing = sorted(r[:5] for r in _reference_law_rows(xi, grid) if r[5] < -1e-9)
        assert failing
        assert [c.sort_key() for c in report.counterexamples] == failing
    xi = build_model({"kind": "broken_semiflow"})
    grid = grid_for(xi, short_times)
    report = check_semiflow_laws(xi, grid)
    failing = sorted(r[:5] for r in _reference_semiflow_rows(xi, grid, rounding=0.0) if r[5] < -1e-9)
    assert failing
    assert [c.sort_key() for c in report.counterexamples] == failing


def test_law_checks_send_one_base_time_per_batch(diag_model, short_times):
    grid = SampleGrid.create(short_times, [ShiftedGenerator(1, 0.0), ShiftedGenerator(2, 0.5)],
                             [(1.0, 0.0), (0.6, -0.8), (-2.0, 1.0)])
    T, n = np.asarray(short_times), len(short_times)
    k, j, i = triples(n)
    # one (base, vector)'s samples: the identities, then every triple in (k, j, i) order
    want = [np.concatenate((T, T[c])) for c in (i, j, k)]
    for check in (check_semiflow_laws, check_cocycle_laws):
        batches = []
        check(diag_model, grid, 1e-9, lambda base, vector, coords, m: batches.append((base, vector, *coords)))
        joined = {}
        for base, vector, *coords in batches:
            t0s = coords[2]
            first = int(np.searchsorted(T, t0s[0]))  # index of the batch's first base time
            # the n identity samples (t, t, t), or the triples of one base time
            assert all(np.array_equal(c, T) for c in coords) or (
                np.all(t0s == T[first]) and len(t0s) <= (n - first) * (n - first + 1) // 2)
            joined.setdefault((base, vector), []).append(coords)
        assert len(joined) == len(grid.base_points) * (1 if check is check_semiflow_laws else len(grid.vectors))
        for pieces in joined.values():
            assert all(np.array_equal(np.concatenate(c), w) for c, w in zip(zip(*pieces), want))


def test_laws_need_nonempty_grid(sin_model):
    with pytest.raises(PreconditionError, match="grid nonempty"):
        check_semiflow_laws(sin_model, SampleGrid.create([], [], []))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_report_builder_flags_nan_and_negative():
    coords = (np.array([1.0, 2.0, 3.0]), np.zeros(3), np.zeros(3))
    report = _report("demo", 1e-9, None, [("x", "[1]", coords, np.array([0.5, -1.0, math.nan]))])
    assert report.samples_checked == 3
    assert report.worst_margin == -1.0
    assert len(report.counterexamples) == 2
    assert not report.passed
    # NaN-mixed rows count their other margins toward the worst; an all-NaN row leaves it as it was
    rows = [("x", "[1]", coords, np.array([math.nan, 2.0, 0.5])), ("x", "[2]", coords, np.full(3, math.nan)),
            ("x", "[3]", coords, np.array([math.nan, -3.0, math.inf]))]
    report = _report("demo", 1e-9, None, rows)
    assert report.samples_checked == 9
    assert report.worst_margin == -3.0
    assert len(report.counterexamples) == 6
    report = _report("demo", 1e-9, None, rows[1:2])
    assert report.worst_margin == math.inf
    assert [c.t for c in report.counterexamples] == [1.0, 2.0, 3.0]


def test_report_builder_array_path_matches_scalar_path():
    # one batch must report exactly what a scan of one sample at a time reports
    ts = np.array([1.0, 2.0, 3.0])
    margins = np.array([0.25, -0.5, math.inf])
    report = _report("demo", 0.0, None, [("x", "[1]", (ts, np.zeros(3), np.zeros(3)), margins.copy())])
    scanned = [
        Counterexample(t, 0.0, 0.0, "x", "[1]", m) for t, m in zip(ts.tolist(), margins.tolist()) if m < 0.0
    ]
    assert report.worst_margin == min(margins.tolist())
    assert report.counterexamples == tuple(scanned)
    assert report.samples_checked == 3


def test_report_json_shape():
    report = CheckReport(
        check="demo", tol=1e-9, samples_checked=2, worst_margin=-0.5,
        counterexamples=(Counterexample(1.0, 0.0, 0.0, "x", "[1]", -0.5),),
    )
    doc = report.to_json_dict()
    assert doc["verdict"] == "fail"
    assert doc["counterexamples"][0]["margin"] == -0.5
    json.dumps(doc)  # must be serializable as-is


def test_margin_sink_sees_every_sample(pexp3_model):
    g = SampleGrid.create([0.0, 1.0, 2.0], [Trivial(0.0)], [(1.0,)])
    rows = []
    report = check_cocycle_laws(pexp3_model, g, 1e-9, row_sink(rows))
    assert len(rows) == report.samples_checked
