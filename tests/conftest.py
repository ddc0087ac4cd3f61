import math

import numpy as np
import pytest

from cocycle_lab import (
    NormChoice,
    SampleGrid,
    default_base_points,
    default_vectors,
    diag_integral_model,
    pure_exponential_model,
    sin_scalar_model,
)


def grid_for(xi, times):
    return SampleGrid.create(times, default_base_points(xi), default_vectors(xi.dimension))


def triples(n):
    """Index arrays (k, j, i) of the triples k <= j <= i, in lexicographic order:
    the test oracle of the sample layout."""
    upper = np.triu(np.ones((n, n), dtype=bool))
    return np.nonzero(upper[:, :, None] & upper[None, :, :])


def plain_norm(v, choice):
    """||v|| under ``choice`` in plain Python: the test oracle of the package's one
    log-space norm kernel, so it must not call that kernel."""
    mags = [abs(c) for c in v]
    if choice is NormChoice.SUM_ABS:
        return math.fsum(mags)
    if choice is NormChoice.EUCLID:
        return math.sqrt(math.fsum(c * c for c in mags))
    return max(mags)


def log_mags(vectors):
    """log |v| per component of linear test vectors, -inf for a zero one: the input
    form of ``log_norms`` and ``norm_integral_prefix``."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.asarray(vectors, dtype=float)))


def row_sink(rows):
    """A margin sink that appends one (t, s, t0, base, vector, margin) row per sample."""

    def sink(base, vector, coords, margins):
        ts, ss, t0s = coords
        for t, s, t0, m in zip(ts.tolist(), ss.tolist(), t0s.tolist(), margins.tolist()):
            rows.append((t, s, t0, base, vector, m))

    return sink


@pytest.fixture(scope="session")
def full_times():
    """The default CLI grid: 0 to 16 in steps of 0.25."""
    return [0.25 * k for k in range(65)]


@pytest.fixture(scope="session")
def short_times():
    """A coarse grid for unit tests where cubic sample counts would hurt."""
    return [0.0, 0.5, 1.0, 1.75, 2.5, 3.25, 4.0, 5.0, 6.25, 8.0]


@pytest.fixture(scope="session")
def sin_model():
    return sin_scalar_model()


@pytest.fixture(scope="session")
def diag_model():
    return diag_integral_model([1.0, -1.0])


@pytest.fixture(scope="session")
def pexp3_model():
    return pure_exponential_model(3.0)
