"""Shared fixtures: the five session tables take seconds each (about 0.8
to 3 s of CPU), so they are computed once per session and shared by the
unit, property, and acceptance tests."""

import ast
import cmath
import math
from pathlib import Path

import pytest

import painleve.eigensolver as eigensolver
from painleve import (CrossingError, Direction, InitialData, IntegrationConfig, ModeKind, PAINLEVE_I,
                      PAINLEVE_II, TOY_MODEL, count_toy_maxima, eigen_table, integrate, toy_eigen_table)
from painleve.integrator import _advance, _call_step

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

# Single brackets of the first critical value of each Painleve search mode:
# name -> (equation, mode, bracket, reference value), bisected at tol 1e-9.
END_GAME_BRACKETS = {
    "p1-slope": (PAINLEVE_I, ModeKind.SLOPE, (1.8, 1.9), P1_SLOPE_REF[1]),
    "p1-value": (PAINLEVE_I, ModeKind.VALUE, (-0.8, -0.7), P1_VALUE_REF[1]),
    "p2-slope": (PAINLEVE_II, ModeKind.SLOPE, (0.55, 0.65), P2_SLOPE_REF[1]),
    "p2-value": (PAINLEVE_II, ModeKind.VALUE, (1.2, 1.25), P2_VALUE_REF[1]),
}

# Two scan brackets of P-II slope b1 on which the third matched pass lands
# several tol off, bisected at tol 1e-9.
P2_SLOPE_B1_BRACKETS = {
    "natural": (0.5502734701768284, 0.6903018533268568),
    "shifted": (0.5670768761380284, 0.7071052592880568),
}


def benchmark_copy(name):
    """The value perfbench/workloads.py assigns to ``name``, read without
    importing the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    copies = [node.value for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    assert len(copies) == 1
    return ast.literal_eval(copies[0])


def toy_count(a, cfg):
    """Maxima count of the toy model's trajectory from y(0) = a."""
    return count_toy_maxima(integrate(TOY_MODEL, InitialData(a), Direction.POSITIVE_T, cfg))


def counted_probes(monkeypatch, fail_at=None):
    """Count the probes made through painleve.eigensolver.integrate, which
    the eigensolver calls only from ``_run``, its one probe path; the
    ``fail_at``-th one raises CrossingError."""
    calls = []
    real = eigensolver.integrate

    def integrate(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_at:
            raise CrossingError("injected failed pole crossing")
        return real(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "integrate", integrate)
    return calls


def arc_exit(eq, entry, t0, half_plane):
    """Complex-path reference for a pole crossing, independent of the
    Laurent series: carry the entry sample (t, y, y', I) around t0 on the
    half circle through the upper (+1) or lower (-1) half plane (any other
    value raises ValueError), with the
    DOP853 stepper in the angle at rel_tol 1e-13. Returns the complex exit
    (y, y', I) at the entry's mirror point 2 t0 - t."""
    if half_plane not in (1, -1):
        raise ValueError(f"half_plane must be +1 or -1, got {half_plane!r}")
    t, y, yp, fluct = entry
    radius = abs(t - t0)
    phi0, phi1 = (0.0, half_plane * math.pi) if t > t0 else (half_plane * math.pi, 0.0)

    def g(phi, u, v):
        d = cmath.rect(radius, phi)
        return tuple(1j * d * x for x in eq.rhs(t0 + d, u, v))

    _, u, v, w, _, _, token = _advance(_call_step(g), g, phi0, complex(y), complex(yp), complex(fluct),
                                       phi1, IntegrationConfig(rel_tol=1e-13), lambda *_: None)
    assert token is None
    return u, v, w


# The five session tables: name -> (equation, mode, n_max, tol). The toy
# table is toy_eigen_table's, at its own rel_tol.
SESSION_TABLES = {
    "p1_slope": (PAINLEVE_I, ModeKind.SLOPE, 11, 1e-9),
    "p1_value": (PAINLEVE_I, ModeKind.VALUE, 15, 1e-9),
    "p2_slope": (PAINLEVE_II, ModeKind.SLOPE, 21, 1e-9),
    "p2_value": (PAINLEVE_II, ModeKind.VALUE, 14, 1e-9),
    "toy": (TOY_MODEL, ModeKind.TOY, 50, 1e-6),
}


def session_table(name):
    eq, mode, n_max, tol = SESSION_TABLES[name]
    if eq is TOY_MODEL:
        return toy_eigen_table(n_max, tol=tol)
    return eigen_table(eq, mode, n_max, tol=tol)


@pytest.fixture(scope="session")
def p1_slope_table():
    return session_table("p1_slope")


@pytest.fixture(scope="session")
def p1_value_table():
    return session_table("p1_value")


@pytest.fixture(scope="session")
def p2_slope_table():
    return session_table("p2_slope")


@pytest.fixture(scope="session")
def p2_value_table():
    return session_table("p2_value")


@pytest.fixture(scope="session")
def toy_table():
    return session_table("toy")
