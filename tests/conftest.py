"""Shared fixtures: the eigenvalue tables are expensive (about a minute
each), so they are computed once per session and shared by the unit,
property, and acceptance tests."""

import pytest

import painleve.eigensolver as eigensolver
from painleve import (Direction, InitialData, ModeKind, PAINLEVE_I, PAINLEVE_II, PurityError, TOY_MODEL,
                      count_toy_maxima, eigen_table, integrate, toy_eigen_table)

# Reference critical values (reference digits for these systems).
P1_SLOPE_REF = {
    1: 1.851854034,
    2: 3.004031103,
    3: 3.905175320,
    4: 4.683412410,
    5: 5.383086722,
    10: 8.244932302,
    11: 8.738330156,
}
P1_VALUE_REF = {
    1: -0.7401954236,
    2: -1.206703845,
    3: -1.484375587,
    4: -1.69951765,
}
P2_SLOPE_REF = {
    1: 0.5950825526,
    2: 1.528605106,
    3: 2.155132869,
    4: 2.700745985,
    5: 3.195127590,
    20: 8.499476190,
    21: 8.787666814,
}
P2_VALUE_REF = {
    1: 1.222873339,
    2: 1.533883935,
    3: 1.754537281,
    4: 1.93061783,
    13: 2.858869051,
    14: 2.9303576515,
}

# Reference growth constants (quoted digits; the final digit of each carries
# the source's stated uncertainty, +-1 ulp except p2_slope at +-2).
CONST_REF = {
    "p1_slope": 2.09214674,
    "p1_value": -1.0304844,
    "p2_slope": 1.8624128,
    "p2_value": 1.21581165,
}

# Toy-model critical values frozen from the in-repo fine-grid oracle
# (maxima-count jumps located by a step-1e-4 scan; see test_eigensolver).
TOY_REF = {1: 1.602573, 2: 2.388358, 3: 2.976682}


def toy_count(a, cfg):
    """Maxima count of the toy model's trajectory from y(0) = a."""
    return count_toy_maxima(integrate(TOY_MODEL, InitialData(a), Direction.POSITIVE_T, cfg))


def counted_probes(monkeypatch, fail_at=None):
    """Count the probes made through painleve.eigensolver.integrate, the name
    every probe goes through; the ``fail_at``-th one raises PurityError."""
    calls = []
    real = eigensolver.integrate

    def integrate(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_at:
            raise PurityError("injected impure detour exit")
        return real(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "integrate", integrate)
    return calls


@pytest.fixture(scope="session")
def p1_slope_table():
    return eigen_table(PAINLEVE_I, ModeKind.SLOPE, 11, tol=1e-9)


@pytest.fixture(scope="session")
def p1_value_table():
    return eigen_table(PAINLEVE_I, ModeKind.VALUE, 15, tol=1e-9)


@pytest.fixture(scope="session")
def p2_slope_table():
    return eigen_table(PAINLEVE_II, ModeKind.SLOPE, 21, tol=1e-9)


@pytest.fixture(scope="session")
def p2_value_table():
    return eigen_table(PAINLEVE_II, ModeKind.VALUE, 14, tol=1e-9)


@pytest.fixture(scope="session")
def toy_table():
    return toy_eigen_table(50, tol=1e-6)
