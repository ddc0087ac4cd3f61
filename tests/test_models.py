"""Closed-form models: generator family, exponents, factory, defaults."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import (
    DomainError,
    PreconditionError,
    ShiftedGenerator,
    Trivial,
    build_model,
    default_base_points,
    default_vectors,
    generator_value,
    integrate_generator,
    sin_scalar_exponent,
)
from cocycle_lab.core import log_cocycle_norm, log_norms
from cocycle_lab.quadrature import QuadratureConfig, adaptive_simpson


# ---------------------------------------------------------------------------
# Generator family
# ---------------------------------------------------------------------------


def test_generator_known_value():
    # x_1(0) = 1/3 + (1/6)/2 = 5/12
    assert generator_value(1, 0.0, 0.0) == pytest.approx(5.0 / 12.0, abs=1e-15)


def test_generator_scalar_and_array_agree():
    arr = generator_value(2, 0.5, np.array([0.0, 1.0, 4.0]))
    assert isinstance(arr, np.ndarray)
    for u, a in zip([0.0, 1.0, 4.0], arr):
        v = generator_value(2, 0.5, u)
        assert isinstance(v, float)
        assert v == a


@given(st.integers(1, 6), st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.001, 5.0))
@settings(max_examples=200)
def test_generator_bounds_and_decrease(n, sigma, u, du):
    lo = 1.0 / (2 * n + 1)
    hi = 1.0 / (2 * n)
    a = generator_value(n, sigma, u)
    b = generator_value(n, sigma, u + du)
    assert lo < b < a < hi


@given(st.integers(1, 5), st.floats(0.0, 6.0), st.floats(0.0, 6.0))
@settings(max_examples=100)
def test_generator_family_decreases_in_n(n, sigma, u):
    assert generator_value(n + 1, sigma, u) < generator_value(n, sigma, u)


def test_generator_validation():
    with pytest.raises(PreconditionError):
        generator_value(0, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        generator_value(1.5, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        generator_value(1, -0.1, 1.0)
    with pytest.raises(PreconditionError):
        generator_value(1, 0.0, -1.0)


# ---------------------------------------------------------------------------
# Generator integrals
# ---------------------------------------------------------------------------


def test_integral_known_values():
    # length/3 + (1/12) e^{-sigma} (1 - e^{-length})
    assert integrate_generator(1, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0 + (1.0 - math.exp(-1.0)) / 12.0, abs=1e-15)
    assert integrate_generator(2, 1.0, 3.0) == pytest.approx(
        3.0 / 5.0 + math.exp(-1.0) * (1.0 - math.exp(-3.0)) / 40.0, abs=1e-15)
    assert integrate_generator(3, 2.0, 0.0) == 0.0


@given(st.integers(1, 4), st.floats(0.0, 8.0), st.floats(0.0, 6.0), st.floats(0.0, 6.0))
@settings(max_examples=150)
def test_integral_additive_in_length(n, sigma, a, b):
    whole = integrate_generator(n, sigma, a + b)
    split = integrate_generator(n, sigma, a) + integrate_generator(n, sigma + a, b)
    assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n,sigma,length", [(1, 0.0, 1.0), (2, 0.5, 3.0), (3, 4.0, 8.0)])
def test_integral_matches_quadrature(n, sigma, length):
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)
    numeric = adaptive_simpson(lambda u: generator_value(n, sigma, u), 0.0, length, cfg)
    assert integrate_generator(n, sigma, length) == pytest.approx(numeric, rel=1e-10)


def test_integral_validation():
    with pytest.raises(PreconditionError):
        integrate_generator(0, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        integrate_generator(1, -1.0, 1.0)
    with pytest.raises(PreconditionError):
        integrate_generator(1, 0.0, -0.5)


# ---------------------------------------------------------------------------
# Oscillating scalar exponent
# ---------------------------------------------------------------------------


def test_exponent_known_values():
    assert sin_scalar_exponent(4.0, 2.0) == pytest.approx(6.0, abs=1e-12)
    assert sin_scalar_exponent(2.0, 0.0) == pytest.approx(-2.0, abs=1e-12)
    assert sin_scalar_exponent(10.0, 6.0) == pytest.approx(-28.0, abs=1e-12)
    assert sin_scalar_exponent(3.0, 3.0) == 0.0


@given(st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0))
@settings(max_examples=200)
def test_exponent_telescopes(a, b, c):
    r, s, t = sorted([a, b, c])
    whole = sin_scalar_exponent(t, r)
    split = sin_scalar_exponent(t, s) + sin_scalar_exponent(s, r)
    assert whole == pytest.approx(split, rel=1e-10, abs=1e-9)


def test_sin_model_norm_matches_exponent(sin_model):
    t, s = 5.25, 1.5
    got = log_cocycle_norm(sin_model, t, s, Trivial(0.0), (2.0,))
    assert got == pytest.approx(sin_scalar_exponent(t, s) + math.log(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Diagonal model
# ---------------------------------------------------------------------------


def test_diag_components_scale_by_generator_integral(diag_model):
    t, s = 3.5, 1.0
    x = ShiftedGenerator(2, 0.5)
    out = diag_model.log_factors(t, s, x)
    gain = integrate_generator(2, 0.5, t - s)
    assert out[0] == pytest.approx(gain, rel=1e-14)
    assert out[1] == pytest.approx(-gain, rel=1e-14)
    # the sum norm of Phi(t, s, x)(1, 1) is e^gain + e^-gain
    [got] = log_norms(diag_model, t, s, x, [(1.0, 1.0)])
    assert got == pytest.approx(math.log(2.0 * math.cosh(gain)), rel=1e-14)


def test_diag_rejects_trivial_base(diag_model):
    with pytest.raises(DomainError, match="ShiftedGenerator base points"):
        log_norms(diag_model, 1.0, 0.0, Trivial(0.0), [(1.0, 1.0)])


# ---------------------------------------------------------------------------
# Factory and defaults
# ---------------------------------------------------------------------------


def test_build_model_dispatch():
    assert build_model({"kind": "sin_scalar"}).descriptor["kind"] == "sin_scalar"
    assert build_model({"kind": "pure_exponential", "rate": -1.0}).descriptor["rate"] == -1.0
    assert build_model({"kind": "diag_integral", "alphas": [2.0]}).dimension == 1


def test_build_model_rejects_bad_descriptors():
    with pytest.raises(PreconditionError):
        build_model({"kind": "affine"})
    with pytest.raises(PreconditionError):
        build_model({"kind": "sin_scalar", "phase": 1.0})
    with pytest.raises(PreconditionError):
        build_model({"kind": "diag_integral"})
    with pytest.raises(PreconditionError):
        build_model({"kind": "pure_exponential"})
    with pytest.raises(PreconditionError):
        build_model({"rate": 1.0})
    with pytest.raises(PreconditionError):
        build_model({"kind": "diag_integral", "alphas": []})
    with pytest.raises(PreconditionError):
        build_model({"kind": "pure_exponential", "rate": math.inf})
    # another kind's keys are unknown keys
    for doc, key in (({"kind": "sin_scalar", "rate": 5}, "rate"),
                     ({"kind": "diag_integral", "alphas": [1, -1], "rate": 3}, "rate"),
                     ({"kind": "pure_exponential", "rate": 2, "alphas": [7]}, "alphas")):
        with pytest.raises(PreconditionError, match=f"unknown keys \\['{key}'\\]"):
            build_model(doc)


BUILTIN_DESCRIPTORS = [
    {"kind": "sin_scalar"},
    {"kind": "pure_exponential", "rate": -2.5},
    {"kind": "broken_cocycle"},
    {"kind": "broken_semiflow"},
    {"kind": "diag_integral", "alphas": [1, -1, 0.25]},
]


def _coordinate(x):
    return x.value if isinstance(x, Trivial) else x.sigma


@pytest.mark.parametrize("descriptor", BUILTIN_DESCRIPTORS, ids=lambda d: d["kind"])
@given(st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 10.0)),
                min_size=1, max_size=8),
       st.floats(0.0, 20.0), st.floats(0.0, 10.0))
@settings(max_examples=50)
def test_array_base_points_match_point_by_point(descriptor, samples, s0, d0):
    xi = build_model(descriptor)
    point = Trivial if isinstance(default_base_points(xi)[0], Trivial) else (lambda c: ShiftedGenerator(2, c))
    coords, ss, ds = (np.array(c) for c in zip(*samples))
    ts = ss + ds
    x = point(coords)
    # times as arrays, and scalar times that the coordinate broadcasts with
    for t, s in ((ts, ss), (s0 + d0, s0)):
        flown = xi.semiflow(t, s, x)
        assert type(flown) is type(x)
        lf = xi.log_factors(t, s, x)
        assert lf.shape == (xi.dimension, len(coords))
        for q, c in enumerate(coords.tolist()):
            tq, sq = np.broadcast_to(t, coords.shape)[q].item(), np.broadcast_to(s, coords.shape)[q].item()
            assert _coordinate(flown)[q] == _coordinate(xi.semiflow(tq, sq, point(c)))
            want = xi.log_factors(tq, sq, point(c))
            if isinstance(x, ShiftedGenerator):
                # np.exp of an array shift may differ from math.exp in the
                # last bit; broken_semiflow reads the diag_integral factors
                np.testing.assert_allclose(lf[:, q], want, rtol=1e-15, atol=0.0)
            else:
                assert lf[:, q].tolist() == want.tolist()


def test_array_base_points_are_validated():
    with pytest.raises(DomainError, match="needs a finite value >= 0"):
        Trivial(np.array([0.0, -1.0, 2.0]))
    with pytest.raises(DomainError, match="shift must be finite and >= 0"):
        ShiftedGenerator(1, np.array([0.5, math.nan]))
    with pytest.raises(DomainError, match="shift must be finite and >= 0"):
        ShiftedGenerator(1, np.array([0.5, math.inf]))


def test_default_base_points(sin_model, diag_model, pexp3_model):
    assert default_base_points(sin_model) == (Trivial(0.0),)
    assert default_base_points(pexp3_model) == (Trivial(0.0),)
    assert default_base_points(diag_model) == (
        ShiftedGenerator(1, 0.0), ShiftedGenerator(2, 0.0), ShiftedGenerator(1, 1.0))


def test_default_vectors():
    assert default_vectors(1) == ((1.0,), (-1.0,))
    vecs = default_vectors(3)
    assert len(vecs) == 5
    assert (1.0, 0.0, 0.0) in vecs
    assert (1.0, 1.0, 1.0) in vecs and (-1.0, -1.0, -1.0) in vecs
