"""Certificates: witness validation, fitters, checkers, serialization."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import (
    ExpInstabilityCertificate,
    ExpWitness,
    InstabilityCertificate,
    IntegralInstabilityCertificate,
    NoCertificate,
    NormChoice,
    ParametricDecay,
    PreconditionError,
    QuadratureConfig,
    SampleGrid,
    ShiftedGenerator,
    TabulatedDecay,
    TabulatedWitness,
    Trivial,
    certificate_from_json_dict,
    certificate_to_json_dict,
    check_decay,
    check_exp_instability,
    check_instability,
    check_integral_instability,
    decay_limit_witnessed,
    decay_to_exponential,
    default_base_points,
    diag_integral_model,
    estimate_decay,
    estimate_exp_instability,
    estimate_instability,
    estimate_integral_instability,
    norm,
    pure_exponential_model,
    sin_scalar_model,
)

from cocycle_lab.certificates import (
    DEFAULT_NU_CANDIDATES,
    _backward_ratios,
    _datko_stats,
    _ls_slope,
    _pair_tables,
)
from cocycle_lab.core import _report, log_cocycle_norm, shift_cocycle
from cocycle_lab.theorems import _check_exp_diagonal, _check_window_bound
from conftest import grid_for, row_sink, triples


# ---------------------------------------------------------------------------
# Witness functions
# ---------------------------------------------------------------------------


def test_exp_witness_validation():
    with pytest.raises(PreconditionError):
        ExpWitness(0.0, 1.0)
    with pytest.raises(PreconditionError):
        ExpWitness(-2.0, 1.0)
    with pytest.raises(PreconditionError):
        ExpWitness(1.0, math.inf)
    w = ExpWitness(2.0, 0.5)
    assert w.value(2.0) == pytest.approx(2.0 * math.e, rel=1e-15)
    assert w.log_value(2.0) == pytest.approx(math.log(2.0) + 1.0, rel=1e-15)


def test_tabulated_witness_validation():
    with pytest.raises(PreconditionError):
        TabulatedWitness.from_values([], [])
    with pytest.raises(PreconditionError):
        TabulatedWitness.from_values([0.0, 1.0], [1.0])
    with pytest.raises(PreconditionError):
        TabulatedWitness.from_values([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(PreconditionError):
        TabulatedWitness.from_values([0.0, 1.0], [1.0, -2.0])
    with pytest.raises(PreconditionError):
        TabulatedWitness.from_log_values([0.0], [math.nan])
    # a NaN knot passed the ordering test and broke the step lookup
    for bad in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="knot times must be finite"):
            TabulatedWitness.from_values([0.0, 1.0, bad, 3.0], [1.0, 0.5, 0.2, 0.1])
        with pytest.raises(PreconditionError, match="knot times must be finite"):
            certificate_from_json_dict({"kind": "decay", "form": "tabulated", "times": [0.0, 1.0, 2.0, bad],
                                        "values": [1.0, 0.5, 0.2, 0.1], "grid_hash": "", "tool_version": "0"})


def test_tabulated_witness_step_lookup():
    w = TabulatedWitness.from_values([0.0, 1.0, 2.0], [5.0, 3.0, 2.0])
    # value at the nearest knot time >= t, clamped to the last knot
    assert w.value(0.0) == 5.0
    assert w.value(0.5) == 3.0
    assert w.value(1.0) == 3.0
    assert w.value(1.5) == 2.0
    assert w.value(2.0) == 2.0
    assert w.value(99.0) == 2.0
    assert w.log_value(0.5) == math.log(3.0)


def test_log_value_of_an_array_matches_plain_formulas():
    ts = [0.0, 0.25, 1.0, 1.5, 2.0, 7.0, 99.0]
    tab = TabulatedDecay.from_values([0.25, 1.0, 2.0], [0.9, 0.5, 0.125], grid_hash="h", tool_version="v")
    assert (tab.grid_hash, tab.tool_version) == ("h", "v")  # from_values passes the fields through
    cases = [
        (ExpWitness(2.0, 0.75), lambda t: math.log(2.0) + 0.75 * t),
        (ParametricDecay(3.0, 0.5), lambda t: -0.5 * t - math.log(3.0)),
        # the first knot >= t, or the last knot past the table
        (tab, lambda t: next((lv for kt, lv in zip(tab.times, tab.log_values) if kt >= t), tab.log_values[-1])),
    ]
    for w, reference in cases:
        assert w.log_value(np.array(ts)).tolist() == [reference(t) for t in ts]
        assert w.log_value(tuple(ts)).tolist() == [reference(t) for t in ts]
        assert [w.log_value(t) for t in ts] == [reference(t) for t in ts]


# ---------------------------------------------------------------------------
# Certificate invariants
# ---------------------------------------------------------------------------


def test_parametric_decay_validation():
    with pytest.raises(PreconditionError):
        ParametricDecay(0.5, 1.0)
    with pytest.raises(PreconditionError):
        ParametricDecay(2.0, 0.0)
    f = ParametricDecay(2.0, 1.0)
    assert f.value(0.0) == 0.5
    assert f.log_value(3.0) == pytest.approx(-3.0 - math.log(2.0), rel=1e-15)


def test_tabulated_decay_validation():
    with pytest.raises(PreconditionError):
        TabulatedDecay.from_values([0.0, 1.0], [0.5, 0.8])  # increasing
    with pytest.raises(PreconditionError):
        TabulatedDecay.from_values([0.0, 1.0], [1.0, 0.0])  # zero value
    with pytest.raises(PreconditionError):
        TabulatedDecay.from_log_values([0.0, 1.0], [-math.inf, -math.inf])
    f = TabulatedDecay.from_values([0.0, 2.0], [1.0, 0.25])
    assert f.value(1.0) == 0.25


def test_decay_limit_witnessed():
    assert decay_limit_witnessed(ParametricDecay(1.0, 0.5))
    assert decay_limit_witnessed(TabulatedDecay.from_values([0.0, 1.0], [1.0, 0.5]))
    assert not decay_limit_witnessed(TabulatedDecay.from_values([0.0, 9.0], [0.9, 0.9]))


def test_instability_witness_must_exceed_one():
    with pytest.raises(PreconditionError):
        InstabilityCertificate(N=ExpWitness(1.0, 0.0))
    with pytest.raises(PreconditionError):
        InstabilityCertificate(N=ExpWitness(0.9, 1.0))
    with pytest.raises(PreconditionError):
        InstabilityCertificate(N=TabulatedWitness.from_values([0.0], [1.0]))
    InstabilityCertificate(N=ExpWitness(1.0, 0.5))
    InstabilityCertificate(N=ExpWitness(1.01, 0.0))


def test_integral_witness_allows_exactly_one():
    IntegralInstabilityCertificate(M=ExpWitness(1.0, 0.0))
    IntegralInstabilityCertificate(M=TabulatedWitness.from_values([0.0], [1.0]))
    with pytest.raises(PreconditionError):
        IntegralInstabilityCertificate(M=TabulatedWitness.from_values([0.0], [0.99]))


def test_exp_certificate_needs_positive_rate():
    with pytest.raises(PreconditionError):
        ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=0.0)
    with pytest.raises(PreconditionError):
        ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=-1.0)


@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_exp_certificate_growth_cap_is_none_or_finite_and_positive(cap):
    with pytest.raises(PreconditionError, match="growth_cap must be None or finite and > 0"):
        ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=1.0, growth_cap=cap)
    doc = certificate_to_json_dict(ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=1.0))
    with pytest.raises(PreconditionError, match="growth_cap"):
        certificate_from_json_dict({**doc, "growth_cap": cap})
    assert ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=1.0, growth_cap=None).growth_cap is None
    assert ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=1.0, growth_cap=1e-300).growth_cap == 1e-300


def test_decay_to_exponential():
    f = TabulatedDecay.from_values([0.0, 1.0], [1.0, 0.5])
    g = decay_to_exponential(f, 1.0)
    assert g.n_tilde == pytest.approx(2.0, rel=1e-15)
    assert g.omega == pytest.approx(math.log(2.0), rel=1e-15)
    with pytest.raises(PreconditionError):
        decay_to_exponential(f, 0.0)
    with pytest.raises(PreconditionError):
        decay_to_exponential(TabulatedDecay.from_values([0.0], [1.0]), 1.0)  # f(mu) = 1


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def test_decay_estimate_pure_exponential(short_times):
    xi = pure_exponential_model(-1.0)
    cert = estimate_decay(xi, grid_for(xi, short_times))
    assert cert.log_values == tuple(-t for t in short_times)
    assert cert.value(0.0) == 1.0
    assert cert.grid_hash == grid_for(xi, short_times).grid_hash


def test_decay_estimate_is_nonincreasing(sin_model, short_times):
    cert = estimate_decay(sin_model, grid_for(sin_model, short_times))
    assert cert.log_values[0] == 0.0
    assert all(b <= a for a, b in zip(cert.log_values, cert.log_values[1:]))


def test_instability_estimate_pexp3(pexp3_model, short_times):
    cert = estimate_instability(pexp3_model, grid_for(pexp3_model, short_times))
    for t in short_times:
        assert cert.N.value(t) == pytest.approx(1.01, rel=1e-14)


def test_exp_estimate_pexp3_is_exact(pexp3_model, full_times):
    cert = estimate_exp_instability(pexp3_model, grid_for(pexp3_model, full_times))
    assert isinstance(cert, ExpInstabilityCertificate)
    assert cert.nu == 3.0
    for t in full_times[::8]:
        assert cert.N.value(t) == pytest.approx(1.01, rel=1e-14)
    assert cert.growth_cap == 8.0


def test_exp_estimate_sin(sin_model, full_times, short_times):
    full = estimate_exp_instability(sin_model, grid_for(sin_model, full_times))
    assert isinstance(full, ExpInstabilityCertificate) and full.nu == 4.0
    limited = estimate_exp_instability(
        sin_model, grid_for(sin_model, full_times), nu_candidates=(1.0, 2.0, 3.0))
    assert isinstance(limited, ExpInstabilityCertificate) and limited.nu == 3.0
    coarse = estimate_exp_instability(sin_model, grid_for(sin_model, short_times))
    assert isinstance(coarse, ExpInstabilityCertificate) and coarse.nu == 4.0


def test_exp_estimate_diag(diag_model, full_times):
    cert = estimate_exp_instability(diag_model, grid_for(diag_model, full_times))
    assert isinstance(cert, ExpInstabilityCertificate)
    assert cert.nu == 0.25


def test_exp_estimate_contracting_model_has_no_certificate(full_times):
    xi = pure_exponential_model(-1.0)
    out = estimate_exp_instability(xi, grid_for(xi, full_times))
    assert isinstance(out, NoCertificate)
    assert out.property_name == "exp-instability"
    assert out.details["realized_rate"] == -1.0
    assert "realized growth rate" in out.reason
    assert out.details["candidates"][0] == 0.25


def test_exp_estimate_growth_cap_branch(sin_model, full_times):
    out = estimate_exp_instability(sin_model, grid_for(sin_model, full_times), growth_cap=0.01)
    assert isinstance(out, NoCertificate)
    assert "growth_cap" in out.reason
    assert out.details["envelope_slopes"]  # at least one candidate was rate-covered


def test_integral_estimate_pexp3(pexp3_model, short_times):
    cert = estimate_integral_instability(pexp3_model, grid_for(pexp3_model, short_times))
    for t in short_times:
        assert cert.M.value(t) == 1.0
    assert cert.quad == QuadratureConfig()


def test_estimator_validation(pexp3_model, short_times):
    g = grid_for(pexp3_model, short_times)
    with pytest.raises(PreconditionError):
        estimate_instability(pexp3_model, g, headroom=0.0)
    with pytest.raises(PreconditionError):
        estimate_exp_instability(pexp3_model, g, growth_cap=0.0)
    with pytest.raises(PreconditionError):
        estimate_exp_instability(pexp3_model, g, nu_candidates=(2.0, 1.0))
    with pytest.raises(PreconditionError):
        estimate_exp_instability(pexp3_model, g, nu_candidates=(0.0, 1.0))
    # an empty candidate tuple is an error, not the default ladder
    with pytest.raises(PreconditionError):
        estimate_exp_instability(pexp3_model, g, nu_candidates=())
    with pytest.raises(PreconditionError, match="grid nonempty"):
        estimate_decay(pexp3_model, SampleGrid.create([], [], []))


def test_integral_estimate_needs_measurability(short_times):
    import dataclasses

    xi = pure_exponential_model(3.0)
    blocked = dataclasses.replace(xi, strongly_measurable=False)
    with pytest.raises(PreconditionError, match="strongly measurable"):
        estimate_integral_instability(blocked, grid_for(blocked, short_times))


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def test_round_trip_is_exact_at_zero_tolerance(sin_model, diag_model, pexp3_model, short_times):
    for xi in (sin_model, diag_model, pexp3_model):
        g = grid_for(xi, short_times)
        assert check_decay(xi, estimate_decay(xi, g), g, tol=0.0).passed
        assert check_instability(xi, estimate_instability(xi, g), g, tol=0.0).passed
        exp_cert = estimate_exp_instability(xi, g)
        assert isinstance(exp_cert, ExpInstabilityCertificate)
        assert check_exp_instability(xi, exp_cert, g, tol=0.0).passed
        assert check_integral_instability(
            xi, estimate_integral_instability(xi, g), g, tol=0.0).passed


def test_checkers_reject_wrong_certificate_kind(pexp3_model, short_times):
    g = grid_for(pexp3_model, short_times)
    inst = InstabilityCertificate(N=ExpWitness(2.0, 0.0))
    decay = ParametricDecay(1.0, 1.0)
    with pytest.raises(PreconditionError, match="^check_decay needs a decay certificate, got InstabilityCertificate$"):
        check_decay(pexp3_model, inst, g)
    with pytest.raises(PreconditionError, match="^check_instability needs an instability certificate, got Parametric"):
        check_instability(pexp3_model, decay, g)
    with pytest.raises(PreconditionError, match="^check_exp_instability needs an exp-instability certificate, got"):
        check_exp_instability(pexp3_model, inst, g)
    with pytest.raises(PreconditionError, match="^check_integral_instability needs an integral certificate, got"):
        check_integral_instability(pexp3_model, inst, g)


def test_flat_witness_fails_on_contracting_model(short_times):
    # ||Phi(t, t0)v|| = e^{-5 (t - t0)} ||v||, so N = 2 stops covering the
    # inverse ratio as soon as 5 (t - t0) > log 2.
    xi = pure_exponential_model(-5.0)
    g = grid_for(xi, short_times)
    report = check_instability(xi, InstabilityCertificate(N=ExpWitness(2.0, 0.0)), g)
    assert not report.passed
    worst = math.log(2.0) - 5.0 * (short_times[-1] - short_times[0])
    assert report.worst_margin == pytest.approx(worst, rel=1e-12)


def test_unit_integral_witness_fails_on_contracting_model(short_times):
    xi = pure_exponential_model(-1.0)
    g = SampleGrid.create([0.0, 2.0], [Trivial(0.0)], [(1.0,)])
    cert = IntegralInstabilityCertificate(M=ExpWitness(1.0, 0.0))
    rows = []
    report = check_integral_instability(xi, cert, g, margin_sink=row_sink(rows))
    assert not report.passed
    got = [r for r in rows if r[0] == 2.0 and r[2] == 0.0]
    # integral over [0, 2] is (1 - e^{-2}); the norm there is e^{-2}
    expected = -math.log((1.0 - math.exp(-2.0)) * math.exp(2.0))
    assert got[0][5] == pytest.approx(expected, abs=1e-9)


def test_decay_rows_use_shifted_start(pexp3_model):
    g = SampleGrid.create([0.0, 1.0], [Trivial(0.0)], [(1.0,)])
    rows = []
    check_decay(pexp3_model, ParametricDecay(1.0, 10.0), g, margin_sink=row_sink(rows))
    assert (1.0, 1.0, 1.0) in {(t, s, t0) for t, s, t0, *_ in rows}
    assert (2.0, 1.0, 1.0) in {(t, s, t0) for t, s, t0, *_ in rows}


def test_exp_checker_counts_all_triples(pexp3_model):
    ts = [0.0, 1.0, 2.0, 3.0]
    g = SampleGrid.create(ts, [Trivial(0.0)], [(1.0,)])
    cert = ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=3.0)
    report = check_exp_instability(pexp3_model, cert, g)
    assert report.samples_checked == 20  # ordered triples from 4 times
    assert report.passed


def test_scale_invariance_of_fitted_certificates(sin_model, short_times):
    for c in (0.125, 3.0, 117.0):
        base = SampleGrid.create(short_times, default_base_points(sin_model), [(1.0,), (-1.0,)])
        scaled = SampleGrid.create(
            short_times, default_base_points(sin_model), [(c,), (-c,)])
        f1 = estimate_decay(sin_model, base)
        f2 = estimate_decay(sin_model, scaled)
        assert np.allclose(f1.log_values, f2.log_values, atol=1e-12, rtol=0.0)
        n1 = estimate_instability(sin_model, base)
        n2 = estimate_instability(sin_model, scaled)
        assert np.allclose(n1.N.log_values, n2.N.log_values, atol=1e-12, rtol=0.0)


def test_euclidean_estimates_accept_tiny_vectors(short_times):
    # 1e-200 squares to 0 in floating point; the norm must not
    from cocycle_lab import sin_scalar_model

    xi = sin_scalar_model(NormChoice.EUCLID)
    tiny = SampleGrid.create(short_times, default_base_points(xi), [(1e-200,)])
    unit = SampleGrid.create(short_times, default_base_points(xi), [(1.0,)])
    decay = estimate_decay(xi, tiny)
    assert np.allclose(decay.log_values, estimate_decay(xi, unit).log_values, atol=1e-12, rtol=0.0)
    assert check_decay(xi, decay, tiny, tol=0.0).passed
    integral = estimate_integral_instability(xi, tiny)
    # the Datko ratio normalizes v first, so the tiny vector integrates as (1,)
    assert integral.M.log_values == estimate_integral_instability(xi, unit).M.log_values
    assert check_integral_instability(xi, integral, tiny, tol=0.0).passed


@pytest.mark.parametrize("choice", list(NormChoice))
def test_estimates_accept_a_vector_whose_norm_overflows(short_times, choice):
    # ||(1.5e308, 1.5e308)|| is beyond the float range under the sum and Euclidean norms
    xi = diag_integral_model([1.0, -1.0], choice)
    huge, unit = (SampleGrid.create(short_times, default_base_points(xi), [v])
                  for v in [(1.5e308, 1.5e308), (1.0, 1.0)])
    pairs = [
        (estimate_decay, check_decay, lambda c: c),
        (estimate_instability, check_instability, lambda c: c.N),
        (estimate_exp_instability, check_exp_instability, lambda c: c.N),
        (estimate_integral_instability, check_integral_instability, lambda c: c.M),
    ]
    times = np.asarray(short_times)
    for estimate, check, witness in pairs:
        cert = estimate(xi, huge)
        assert np.allclose(witness(cert).log_value(times), witness(estimate(xi, unit)).log_value(times),
                           atol=1e-12, rtol=0.0)
        assert check(xi, cert, huge, tol=0.0).passed


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_ls_slope_matches_polyfit_on_any_time_scale(scale):
    t = np.array([0.0, 0.5, 1.25, 2.0, 3.5])
    y = np.array([0.3, -1.0, 2.5, 2.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ls_slope(list(t * scale), y)
    assert got == pytest.approx(np.polyfit(t, y, 1)[0] / scale, rel=1e-12)
    assert _ls_slope([scale], y[:1]) == 0.0


@pytest.mark.parametrize("choice", list(NormChoice))
def test_datko_rows_of_a_vector_block_match_single_vectors_exactly(short_times, choice):
    xi = diag_integral_model(np.linspace(-2.0, 2.0, 9), choice)
    vectors = [np.linspace(0.1, 1.7, 9), np.linspace(-1.0, 1.0, 9), 3.0 * np.eye(9)[4]]
    bases, cfg = [ShiftedGenerator(2, 0.0), ShiftedGenerator(1, 0.5)], QuadratureConfig()
    grid = SampleGrid.create(short_times, bases, vectors)
    got = list(_datko_stats(xi, grid, cfg))
    n = len(short_times)
    assert [(x, v) for x, v, _ in got] == [(x.label(), v) for x in bases for v in grid.vector_labels()]
    assert all(row.shape == (n * (n + 1) // 2,) for *_, row in got)
    singles = [
        row.tolist()
        for x in bases
        for v in vectors
        for *_, row in _datko_stats(xi, SampleGrid.create(short_times, [x], [v]), cfg)
    ]
    assert [row.tolist() for *_, row in got] == singles


def test_integral_check_emits_base_then_vector_batches(diag_model, short_times):
    bases = default_base_points(diag_model)
    vectors = [(1.0, 0.0), (0.6, -0.8), (-2.0, 1.0)]
    cert = estimate_integral_instability(diag_model, SampleGrid.create(short_times, bases, vectors))
    rows = []
    check_integral_instability(diag_model, cert, SampleGrid.create(short_times, bases, vectors),
                               margin_sink=row_sink(rows))
    expected = []
    for x in bases:
        for v in vectors:
            check_integral_instability(diag_model, cert, SampleGrid.create(short_times, [x], [v]),
                                       margin_sink=row_sink(expected))
    assert rows == expected


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


ROUND_TRIP_CASES = [
    ParametricDecay(2.5, 0.75, grid_hash="abc"),
    TabulatedDecay.from_values([0.0, 1.0, 2.0], [1.0, 0.5, 0.25], grid_hash="abc"),
    InstabilityCertificate(N=ExpWitness(1.5, 0.25), grid_hash="g"),
    InstabilityCertificate(N=TabulatedWitness.from_values([0.0, 4.0], [1.01, 7.0])),
    ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=3.0, growth_cap=8.0),
    ExpInstabilityCertificate(
        N=TabulatedWitness.from_values([0.0, 1.0], [1.5, 2.5]), nu=0.25),
    IntegralInstabilityCertificate(M=ExpWitness(1.0, 0.5), quad=QuadratureConfig()),
    IntegralInstabilityCertificate(
        M=TabulatedWitness.from_values([0.0, 2.0], [1.0, 3.0]), quad=None),
    NoCertificate(property_name="exp-instability", reason="nothing admissible",
                  details={"realized_rate": -1.0}),
]


@pytest.mark.parametrize("cert", ROUND_TRIP_CASES, ids=lambda c: type(c).__name__)
def test_serialization_round_trip(cert):
    doc = certificate_to_json_dict(cert)
    back = certificate_from_json_dict(doc)
    assert back == cert
    import json

    json.dumps(doc)


def test_quad_reads_the_old_lower_limit_key():
    cert = IntegralInstabilityCertificate(M=ExpWitness(1.0, 0.5), quad=QuadratureConfig(max_depth=32))
    doc = certificate_to_json_dict(cert)
    assert "datko_lower_limit" not in doc["quad"]
    assert certificate_from_json_dict({**doc, "quad": {**doc["quad"], "datko_lower_limit": "t0"}}) == cert
    with pytest.raises(PreconditionError, match=r"^quad.datko_lower_limit supports only 't0', got 's'$"):
        certificate_from_json_dict({**doc, "quad": {**doc["quad"], "datko_lower_limit": "s"}})


def test_tool_version_preserved_on_load():
    doc = certificate_to_json_dict(ParametricDecay(2.0, 1.0))
    doc["tool_version"] = "0.0.1-test"
    assert certificate_from_json_dict(doc).tool_version == "0.0.1-test"


def test_deserialization_rejects_malformed_documents():
    good = certificate_to_json_dict(ParametricDecay(2.0, 1.0))
    cases = []
    stray = dict(good)
    stray["extra"] = 1
    cases.append(stray)
    missing = dict(good)
    del missing["omega"]
    cases.append(missing)
    boolean = dict(good)
    boolean["n_tilde"] = True
    cases.append(boolean)
    cases.append({**good, "kind": "mystery"})
    cases.append({**good, "form": "spline"})
    cases.append("not a dict")
    cases.append({**certificate_to_json_dict(
        InstabilityCertificate(N=ExpWitness(2.0, 0.0))), "N": {"coef": 2.0}})
    tab = certificate_to_json_dict(
        TabulatedDecay.from_values([0.0, 1.0], [1.0, 0.5]))
    cases.append({**tab, "values": [1.0, "x"]})
    cases.append({**tab, "values": [0.5, 1.0]})  # violates monotonicity
    nocert = certificate_to_json_dict(NoCertificate(property_name="decay", reason="why not"))
    cases.append({**nocert, "property": 5})
    cases.append({**nocert, "reason": ["x"]})
    for doc in cases:
        with pytest.raises(PreconditionError):
            certificate_from_json_dict(doc)


def test_no_certificate_serialization_keeps_details():
    out = NoCertificate(property_name="exp-instability", reason="why not",
                        grid_hash="h", details={"candidates": [0.25]})
    doc = certificate_to_json_dict(out)
    assert doc["kind"] == "no_certificate"
    back = certificate_from_json_dict(doc)
    assert back.details == {"candidates": [0.25]}
    assert back.grid_hash == "h"


@given(st.floats(0.05, 20.0), st.floats(0.1, 3.0))
@settings(max_examples=50)
def test_parametric_json_preserves_values_exactly(n_tilde, omega):
    cert = ParametricDecay(1.0 + n_tilde, omega)
    back = certificate_from_json_dict(certificate_to_json_dict(cert))
    assert back.n_tilde == cert.n_tilde
    assert back.omega == cert.omega


# ---------------------------------------------------------------------------
# The estimators against the scalar reference path
# ---------------------------------------------------------------------------


def _reference_fit(xi, grid):
    """(pair need, R, rho_star) of the estimators, by plain loops over
    every (x, v, k <= j <= i) with ``log_cocycle_norm``."""
    T = grid.times
    n = len(T)
    need = [0.0] * n
    R = [[-math.inf] * n for _ in range(n)]
    rho = -math.inf
    for x in grid.base_points:
        for v in grid.vectors:
            log_v = math.log(norm(v, xi.norm_choice))
            L = {(i, k): log_cocycle_norm(xi, T[i], T[k], x, v) for k in range(n) for i in range(k, n)}
            for k in range(n):
                for j in range(k, n):
                    need[j] = max(need[j], log_v - L[j, k])
                    for i in range(j, n):
                        ratio = L[j, k] - L[i, k]
                        R[i][j] = max(R[i][j], ratio)
                        if j < i:
                            rho = max(rho, -ratio / (T[i] - T[j]))
    return need, R, rho


def _ladder_fit(times, R, rho, candidates=DEFAULT_NU_CANDIDATES, growth_cap=8.0):
    """The estimator's ladder over the envelopes R[i][j] (-inf for j > i) and
    rho_star: (nu, y) of the largest candidate that the realized rate covers
    and whose envelope slope stays within the cap, or (None, None), and the
    slope of every rate-covered candidate tried."""
    T = np.asarray(times)
    gaps = T[:, None] - T[None, :]
    slopes = {}
    for nu in reversed(candidates):
        if nu > rho + 1e-9:
            continue
        y = np.max(nu * gaps + np.asarray(R), axis=1)
        slopes[nu] = _ls_slope(T, y)
        if slopes[nu] <= growth_cap:
            return nu, y, slopes
    return None, None, slopes


def _cubic_envelopes(xi, grid):
    """The O(n^3) oracle of the exp-instability estimator: (R, rho_star) from
    every triple, as the estimator once scattered them.

    R[i, j] = max over t0_k <= s_j, x, v of the backward ratio
    L[j, k] - L[i, k] (-inf above the diagonal), and rho_star = max over the
    triples with s_j < t_i of the chord slope -ratio / (t_i - s_j).
    """
    times = np.asarray(grid.times)
    n = len(times)
    R = np.full((n, n), -np.inf)
    least = np.full((n, n), np.inf)
    for _, _, (_, j, i, _), ratio in _backward_ratios(xi, grid, *np.triu_indices(n)):
        np.maximum.at(R, (i, j), ratio)
        np.minimum.at(least, (i, j), ratio)
    gaps = times[:, None] - times[None, :]
    forward = gaps > 0.0
    return R, float(np.max(-least[forward] / gaps[forward], initial=-np.inf))


def _fit_scale(xi, grid, nu):
    """The rounding scale of a fitted log-witness: max(1, nu t_max, max |L|).
    Both fits add and subtract the log norms L and nu t in another order, so
    each rounds by a few ulps of that."""
    max_log_norm = max(float(np.nanmax(np.abs(table))) for *_, table in _pair_tables(xi, grid))
    return max(1.0, nu * grid.times[-1], max_log_norm)


_reference_models = st.one_of(
    st.just(sin_scalar_model()),
    st.floats(-3.0, 3.0).map(pure_exponential_model),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3).map(diag_integral_model),
)


@given(
    _reference_models,
    st.lists(st.integers(0, 48), min_size=1, max_size=9, unique=True),
    st.floats(0.05, 1.0),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_estimators_match_the_scalar_reference(xi, steps, spacing, data):
    times = [spacing * s for s in sorted(steps)]
    component = st.floats(-10.0, 10.0, allow_subnormal=False)
    vectors = data.draw(
        st.lists(
            st.lists(component, min_size=xi.dimension, max_size=xi.dimension).map(lambda v: v if any(v) else [1.0, *v[1:]]),
            min_size=1, max_size=3,
        )
    )
    grid = SampleGrid.create(times, default_base_points(xi), vectors)
    need, R_ref, rho_ref = _reference_fit(xi, grid)

    n_hat = estimate_instability(xi, grid)
    assert n_hat.N.log_values == pytest.approx([math.log1p(0.01) + v for v in need], rel=1e-12, abs=1e-12)
    R, rho = _cubic_envelopes(xi, grid)
    for i in range(len(times)):
        for j in range(len(times)):
            if j <= i:
                assert R[i, j] == pytest.approx(R_ref[i][j], rel=1e-12, abs=1e-12)
            else:
                assert R[i, j] == R_ref[i][j] == -math.inf
    assert rho == pytest.approx(rho_ref, rel=1e-12, abs=1e-12)
    nu, y, _ = _ladder_fit(grid.times, R_ref, rho_ref)
    fitted = estimate_exp_instability(xi, grid)
    assert (None if isinstance(fitted, NoCertificate) else fitted.nu) == nu
    if nu is not None:
        expected = math.log1p(0.01) + np.maximum(y, 0.0)
        assert fitted.N.log_values == pytest.approx(expected.tolist(), rel=1e-12, abs=1e-12)


def test_exp_estimate_matches_the_scalar_reference_on_an_irregular_grid():
    xi = shift_cocycle(diag_integral_model([2.0, -0.5]), 0.3)
    grid = SampleGrid.create([0.0, 0.3, 1.1, 1.2, 2.9, 4.0], default_base_points(diag_integral_model([1.0])),
                             [(1.0, 0.0), (0.5, -2.0)])
    _, R_ref, rho_ref = _reference_fit(xi, grid)
    nu, y, _ = _ladder_fit(grid.times, R_ref, rho_ref)
    fitted = estimate_exp_instability(xi, grid)
    assert isinstance(fitted, ExpInstabilityCertificate) and fitted.nu == nu == 0.5
    ulps = 4 * np.spacing(_fit_scale(xi, grid, nu))
    assert np.abs(np.array(fitted.N.log_values) - (math.log1p(0.01) + np.maximum(y, 0.0))).max() <= ulps
    assert check_exp_instability(xi, fitted, grid, tol=0.0).passed


_BASE_KINDS = {
    "sin": (st.just(sin_scalar_model()), st.builds(Trivial, st.floats(0.0, 3.0))),
    "exp": (st.floats(-3.0, 3.0).map(pure_exponential_model), st.builds(Trivial, st.floats(0.0, 3.0))),
    "diag": (
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3).map(diag_integral_model),
        st.builds(ShiftedGenerator, st.integers(1, 3), st.floats(0.0, 2.0)),
    ),
}


@given(st.sampled_from(sorted(_BASE_KINDS)), st.data())
@settings(max_examples=150, deadline=None)
def test_exp_estimate_matches_the_cubic_oracle(kind, data):
    models, points = _BASE_KINDS[kind]
    xi = data.draw(models)
    gamma = data.draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    if gamma:
        xi = shift_cocycle(xi, gamma)
    # strictly increasing grids of 1 to 12 times, irregular spacing included
    start = data.draw(st.floats(0.0, 2.0))
    gaps = data.draw(st.lists(st.floats(0.01, 2.0), max_size=11))
    times = np.cumsum([start, *gaps]).tolist()
    component = st.floats(-10.0, 10.0, allow_subnormal=False)
    vector = st.lists(component, min_size=xi.dimension, max_size=xi.dimension).map(
        lambda v: v if any(v) else [1.0, *v[1:]])
    grid = SampleGrid.create(times, data.draw(st.lists(points, min_size=1, max_size=3)),
                             data.draw(st.lists(vector, min_size=1, max_size=3)))
    ladder = data.draw(st.one_of(
        st.none(), st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6, unique=True).map(sorted)))
    # small caps force the envelope-slope branch
    growth_cap = data.draw(st.sampled_from([8.0, 1.0, 0.05, 1e-3]))
    candidates = DEFAULT_NU_CANDIDATES if ladder is None else tuple(ladder)

    R, rho = _cubic_envelopes(xi, grid)
    nu, y, slopes = _ladder_fit(grid.times, R, rho, candidates, growth_cap)
    fitted = estimate_exp_instability(xi, grid, nu_candidates=ladder, growth_cap=growth_cap)
    if nu is None:
        assert isinstance(fitted, NoCertificate)
        covered = rho + 1e-9 >= candidates[0]
        assert ("growth_cap" in fitted.reason) == covered
        assert ("realized growth rate" in fitted.reason) == (not covered)
        assert fitted.details["envelope_slopes"].keys() == {f"{c:.17g}" for c in slopes}
        # a chord slope is a weighted mean of consecutive ones, up to rounding
        realized = float(fitted.details["realized_rate"])
        assert realized == rho or abs(realized - rho) <= 1e-14 * max(abs(rho), 1.0)
    else:
        assert isinstance(fitted, ExpInstabilityCertificate) and fitted.nu == nu
        expected = math.log1p(0.01) + np.maximum(y, 0.0)
        ulps = 4 * np.spacing(_fit_scale(xi, grid, nu))
        assert np.abs(np.array(fitted.N.log_values) - expected).max() <= ulps
        assert check_exp_instability(xi, fitted, grid, tol=0.0).passed


# ---------------------------------------------------------------------------
# Triple checks: one base time at a time, against the O(n^3) layout
# ---------------------------------------------------------------------------


def _oracle_exp_report(check, xi, cert, grid, tol, samples, sink=None):
    """The exp-instability report at the triples ``samples`` = (k, j, i), with
    the margins formed as the checker once formed them, over every triple at once."""
    k, j, i = samples
    T = np.asarray(grid.times)
    log_n = cert.N.log_value(grid.times)
    rows = (
        (xlabel, vlabel, (T[i], T[j], T[k]), log_n[i] - (table[j, k] - table[i, k] + cert.nu * (T[i] - T[j])))
        for xlabel, vlabel, _, table in _pair_tables(xi, grid)
    )
    return _report(check, tol, sink, rows)


def _oracle_window_report(xi, log_f_lam, grid, tol):
    T = np.asarray(grid.times)
    k, j, i = triples(len(T))
    window = T[i] < T[j] + 1.0
    k, j, i = k[window], j[window], i[window]
    rows = (
        (xlabel, vlabel, (T[i], T[j], T[k]), -(table[j, k] - table[i, k]) - log_f_lam)
        for xlabel, vlabel, _, table in _pair_tables(xi, grid)
    )
    return _report("window-bound", tol, None, rows)


def _bits(report):
    """A report as its JSON text: -0.0 and nan margins compare by their bits."""
    return json.dumps(report.to_json_dict())


def _joined(batches):
    """The sink stream joined per (base, vector), in order, as the bytes of each array."""
    joined = {}
    for ts, ss, t0s, base, vector, margins in batches:
        joined.setdefault((base, vector), []).append((ts, ss, t0s, margins))
    return [(key, [np.concatenate(c).tobytes() for c in zip(*pieces)]) for key, pieces in joined.items()]


@given(st.sampled_from(sorted(_BASE_KINDS)), st.data())
@settings(max_examples=120, deadline=None)
def test_triple_checks_match_the_cubic_oracle(kind, data):
    models, points = _BASE_KINDS[kind]
    xi = data.draw(models)
    # strictly increasing grids of 2 to 12 times, irregular spacing included
    start = data.draw(st.floats(0.0, 2.0))
    times = np.cumsum([start, *data.draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=11))]).tolist()
    component = st.floats(-10.0, 10.0, allow_subnormal=False)
    vector = st.lists(component, min_size=xi.dimension, max_size=xi.dimension).map(
        lambda v: v if any(v) else [1.0, *v[1:]])
    grid = SampleGrid.create(times, data.draw(st.lists(points, min_size=1, max_size=3)),
                             data.draw(st.lists(vector, min_size=1, max_size=3)))
    # certificates that pass and that fail, checked at tol = 0 too
    if data.draw(st.booleans()):
        witness = ExpWitness(data.draw(st.floats(1.0, 20.0)), data.draw(st.floats(0.01, 3.0)))
    else:
        knots = sorted(set(data.draw(st.lists(st.floats(0.0, 25.0), min_size=1, max_size=6))))
        logs = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=len(knots), max_size=len(knots)))
        witness = TabulatedWitness.from_log_values(knots, logs)
    cert = ExpInstabilityCertificate(witness, nu=data.draw(st.floats(0.01, 5.0)))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.5]))
    n = len(times)

    batches, oracle_batches = [], []
    got = check_exp_instability(xi, cert, grid, tol, lambda *batch: batches.append(batch))
    want = _oracle_exp_report("exp-instability", xi, cert, grid, tol, triples(n), lambda *b: oracle_batches.append(b))
    assert _bits(got) == _bits(want)
    assert got.samples_checked == len(grid.base_points) * len(grid.vectors) * n * (n + 1) * (n + 2) // 6
    assert _joined(batches) == _joined(oracle_batches)

    k, i = np.triu_indices(n)
    diagonal = _oracle_exp_report("exp-instability-diagonal", xi, cert, grid, tol, (k, k, i))
    assert _bits(_check_exp_diagonal(xi, cert, grid, tol)) == _bits(diagonal)

    log_f_lam = data.draw(st.floats(-10.0, 1.0))
    assert _bits(_check_window_bound(xi, log_f_lam, grid, tol)) == _bits(_oracle_window_report(xi, log_f_lam, grid, tol))


def test_exp_check_sends_one_base_time_per_batch(diag_model, short_times):
    grid = grid_for(diag_model, short_times)
    n = len(short_times)
    batches = []
    cert = ExpInstabilityCertificate(ExpWitness(2.0, 1.0), nu=0.5)
    check_exp_instability(diag_model, cert, grid, margin_sink=lambda *batch: batches.append(batch))
    # base point by base point, vectors in grid order, then base time by base time
    labels = [(x.label(), v) for x in grid.base_points for v in grid.vector_labels() for _ in range(n)]
    assert [batch[3:5] for batch in batches] == labels
    for b, (ts, ss, t0s, _, _, margins) in enumerate(batches):
        k = b % n
        assert len(ts) == len(ss) == len(t0s) == len(margins) == (n - k) * (n - k + 1) // 2
        assert np.all(t0s == short_times[k])
        assert not (ts.flags.writeable or ss.flags.writeable or t0s.flags.writeable)


def test_triple_checks_peak_at_one_base_time_block(diag_model):
    # At n = 257 the (k, j, i) index and coordinate arrays of every triple
    # peaked at 209 MB in the check and 117 MB in the window bound.
    grid = grid_for(diag_model, np.linspace(0.0, 16.0, 257).tolist())
    cert = estimate_exp_instability(diag_model, grid)
    checks = (lambda: check_exp_instability(diag_model, cert, grid), lambda: _check_window_bound(diag_model, -50.0, grid, 1e-9))
    for check in checks:
        tracemalloc.start()
        try:
            report = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 64 * 2**20
