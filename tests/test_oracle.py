"""An independent oracle over random scenarios.

``perfbench/checks.py``'s ``Reference`` re-derives every fitted witness,
the exp-instability rate and every worst margin from the models' closed
forms with numpy and scipy, its Datko integrals by Gauss-Legendre nodes.
The program's estimators and checkers must agree with it on scenarios
drawn from the keys it models.  The benchmark's files are loaded, never
edited.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from cocycle_lab.certificates import NoCertificate
from cocycle_lab.cli import PROPERTIES, parse_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def checks():
    """perfbench/checks.py, with the perfbench/workloads.py that it imports by name."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("workloads", "checks"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
    return module


def witness(prop: str, cert):
    return cert if prop == "decay" else cert.M if prop == "integral-instability" else cert.N


def spot_check_every_pair(ref) -> None:
    """The reference's own quadrature spot check, on every (base, vector) pair.

    ``Reference.datko`` checks only its first and last pair, and its 20-node
    Gauss-Legendre sum can miss ``QUAD_RTOL`` on another one that the fits and
    margins read (``PINNED``).  Each pair's prefix is read back from its
    Datko statistic, log(prefix) - (L - log ||v||).
    """
    for (base, v, logv, L, _), Q in zip(ref.tables, ref.datko):
        ref._spot_check(base, v, logv, np.exp(Q + L - logv).T)


def reference_fits(ref) -> dict | None:
    """(nu, log witness) per property from the reference, or None where it has no
    answer: its quadrature spot check refuses on some (base, vector) pair, or its
    linear Datko sums overflow."""
    try:
        with np.errstate(over="raise"):
            fits = {prop: ref.fitted_logs(prop) for prop in PROPERTIES}
            spot_check_every_pair(ref)
            return fits
    except FloatingPointError:
        return None
    except RuntimeError as exc:
        if "reference quadratures disagree" in str(exc):
            return None
        raise


MODELS = st.one_of(
    st.just({"kind": "sin_scalar"}),
    st.builds(lambda rate: {"kind": "pure_exponential", "rate": rate}, st.floats(-45.0, 45.0)),
    st.builds(lambda alphas: {"kind": "diag_integral", "alphas": alphas},
              st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=3)),
)
COMPONENTS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)),
)


@st.composite
def scenarios(draw):
    """A scenario document of the keys that ``Reference`` models: a model, a
    ``{min, max, count}`` grid of 2-17 times, 1-3 nonzero vectors and ``gamma``."""
    model = draw(MODELS)
    dim = len(model.get("alphas", [0.0]))
    lo = draw(st.floats(0.0, 4.0))
    times = {"min": lo, "max": lo + draw(st.floats(0.25, 16.0)), "count": draw(st.integers(2, 17))}
    vector = st.lists(COMPONENTS, min_size=dim, max_size=dim).map(lambda v: v if any(v) else [1.0] + v[1:])
    vectors = draw(st.lists(vector, min_size=1, max_size=3))
    return {"model": model, "grid": {"times": times, "vectors": vectors}, "gamma": draw(st.floats(-2.0, 2.0))}


# The Datko statistic once lost the 1e-300 component, which overtakes the
# 1e300 one after about 10 time units: log M(16) read 1078.9, not 678.9.
@example(doc={"model": {"kind": "diag_integral", "alphas": [200.0, -200.0]},
              "grid": {"times": {"min": 0.0, "max": 16.0, "count": 33}, "vectors": [[1e-300, 1e300]]},
              "gamma": 0.0})
@given(doc=scenarios())
@settings(max_examples=40, deadline=None)
def test_fits_and_margins_match_the_reference(checks, doc):
    ref = checks.Reference(doc)
    fits = reference_fits(ref)
    assume(fits is not None)
    # Certificate files hold their witnesses as linear floats too, so only
    # witnesses inside the float range can be compared.
    assume(all(logs is None or np.abs(logs).max() < 700.0 for _, logs in fits.values()))
    sc, xi = parse_scenario(doc)
    for prop, entry in PROPERTIES.items():
        nu, want = fits[prop]
        cert = entry.estimate(sc, xi)
        if want is None:
            assert isinstance(cert, NoCertificate), prop
            continue
        got = np.asarray(witness(prop, cert).log_values)
        # the witness values agree to rel 1e-8, compared without forming them
        assert np.abs(np.expm1(got - want)).max() <= checks.RTOL, (prop, got.tolist(), want.tolist())
        assert getattr(cert, "nu", None) == nu, prop
        worst = entry.check(sc, xi, cert, None).worst_margin
        assert math.isclose(worst, ref.worst_margin(prop, got, nu), rel_tol=0.0, abs_tol=checks.MARGIN_ATOL), prop


# A draw that the reference's first-and-last spot check let through: on the
# unchecked pair (x1^0, [0,1]) its Gauss-Legendre sum over [0, 2] is off by
# -1.02e-8, above RTOL, so the reference read log M(2) = 59.239708922867 where
# the program reads 59.239708933116.
PINNED = {"model": {"kind": "diag_integral", "alphas": [0.0, -85.0]},
          "grid": {"times": {"min": 0.0, "max": 2.0, "count": 2}, "vectors": [[1.0, 0.0], [0.0, 1.0]]},
          "gamma": 0.0}


def test_integral_fit_matches_quad_where_the_reference_is_refused(checks):
    ref = checks.Reference(PINNED)
    assert reference_fits(ref) is None
    t0, t = ref.times
    # the worst Datko statistic at (t, t0), its integral by quad
    need = max(
        math.log(integrate.quad(lambda tau: math.exp(float(ref.log_norm(base, v, tau, t0)) - logv),
                                t0, t, epsabs=0.0, epsrel=1e-13, limit=500)[0]) - (L[1, 0] - logv)
        for base, v, logv, L, _ in ref.tables
    )
    sc, xi = parse_scenario(PINNED)
    got = PROPERTIES["integral-instability"].estimate(sc, xi).M.log_values
    assert got[0] == 0.0
    assert abs(math.expm1(got[1] - (math.log1p(ref.headroom) + need))) <= 1e-9
