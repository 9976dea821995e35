import copy
import dataclasses
import inspect
import json
import math
import pickle

import numpy as np
import pytest

from painleve import (
    BisectionError,
    ClassTag,
    ClassificationError,
    CrossingError,
    Direction,
    InitialData,
    IntegrationConfig,
    IntegrationError,
    ModeKind,
    PAINLEVE_I,
    PAINLEVE_II,
    PartialTableError,
    SearchMode,
    TOY_MODEL,
    bisect,
    eigen_table,
    integrate,
    scan_brackets,
    separatrix_check,
    toy_eigen_table,
)
import painleve
import painleve.eigensolver as eigensolver
import painleve.integrator as integrator
from painleve.eigensolver import _fine_rel_tol, _flip_poles, _record

from conftest import (END_GAME_BRACKETS, P1_SLOPE_REF, P1_VALUE_REF, P2_SLOPE_B1_BRACKETS, P2_SLOPE_REF,
                      P2_VALUE_REF, TOY_REF, benchmark_copy, counted_probes, toy_count)


def test_search_mode_coercion():
    m = SearchMode.coerce("slope")
    assert m.kind is ModeKind.SLOPE and m.fixed_value == 0.0
    assert SearchMode.coerce(m) is m
    assert SearchMode.coerce(ModeKind.VALUE) == SearchMode(ModeKind.VALUE)


def test_scan_brackets_p1_slope():
    brackets = scan_brackets(PAINLEVE_I, ModeKind.SLOPE, (0.5, 5.0), 0.05)
    assert len(brackets) == 4
    for (lo, hi), n in zip(brackets, range(1, 5)):
        assert lo < P1_SLOPE_REF[n] < hi


def test_scan_brackets_empty_between_eigenvalues():
    brackets = scan_brackets(PAINLEVE_I, ModeKind.SLOPE,
                             (P1_SLOPE_REF[1] + 0.01, P1_SLOPE_REF[2] - 0.01), 0.23)
    assert brackets == []


def test_scan_brackets_p2_value_positive_direction():
    brackets = scan_brackets(PAINLEVE_II, ModeKind.VALUE, (1.0, 2.0), 0.02)
    assert len(brackets) == 4
    for (lo, hi), n in zip(brackets, range(1, 5)):
        assert lo < P2_VALUE_REF[n] < hi


def test_scan_brackets_p2_value_mirror_range():
    # the second equation is odd in y, so a negative value range holds the
    # mirror images of the positive range's brackets (this range lies far
    # enough out to need a pole cap of several poles, near c_9)
    pos = scan_brackets(PAINLEVE_II, ModeKind.VALUE, (2.5, 2.6), 0.05)
    neg = scan_brackets(PAINLEVE_II, ModeKind.VALUE, (-2.6, -2.5), 0.05)
    assert len(pos) == 1
    mirrored = [(-b, -a) for a, b in reversed(neg)]
    assert np.allclose(mirrored, pos, rtol=0.0, atol=1e-12)


def test_scan_brackets_validation():
    with pytest.raises(ValueError):
        scan_brackets(PAINLEVE_I, ModeKind.SLOPE, (0.5, 5.0), -0.1)
    # unchecked, a NaN or infinite step walked past b1-b4 and returned []
    for step in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"step = {step} must be positive and finite"):
            scan_brackets(PAINLEVE_I, ModeKind.SLOPE, (0.5, 5.0), step)
    with pytest.raises(ValueError):
        scan_brackets(PAINLEVE_I, ModeKind.SLOPE, (5.0, 0.5), 0.1)


def test_scan_brackets_warns_when_brackets_crowd():
    # b2 and b3 of the second equation lie one step apart on this grid,
    # whose points are exact in binary
    with pytest.warns(UserWarning, match="brackets at 1.25 and 1.75 are within two scan steps"):
        brackets = scan_brackets(PAINLEVE_II, "slope", (0.25, 2.25), 0.5)
    assert brackets == [(0.25, 0.75), (1.25, 1.75), (1.75, 2.25)]


@pytest.mark.parametrize("bracket", [(0.7, 0.5), (0.6, 0.6), (math.nan, 0.7), (0.5, math.inf)],
                         ids=["reversed", "empty", "nan", "inf"])
def test_bisect_rejects_bad_brackets(monkeypatch, bracket):
    # unchecked, a reversed bracket would run the whole end game before
    # Illinois gives up, and a NaN end would end in the classifier
    calls = counted_probes(monkeypatch)
    with pytest.raises(ValueError, match="bracket .* must be a finite nonempty interval"):
        bisect(PAINLEVE_II, ModeKind.SLOPE, bracket)
    assert calls == []


def test_bisect_first_critical_slope():
    rec = bisect(PAINLEVE_I, ModeKind.SLOPE, (1.8, 1.9), tol=1e-9)
    assert abs(rec.value - P1_SLOPE_REF[1]) < 3e-9
    assert rec.bracket_width <= 1e-9
    assert rec.pole_count == 0
    # bracket width halves every step: final width = initial / 2^m
    m = math.log2(0.1 / rec.bracket_width)
    assert abs(m - round(m)) < 1e-6


END_GAME_CASES = pytest.mark.parametrize("eq,mode,bracket,ref", list(END_GAME_BRACKETS.values()),
                                         ids=list(END_GAME_BRACKETS))


@END_GAME_CASES
def test_end_game_record_flips_at_fine_tolerance(eq, mode, bracket, ref):
    # the matched end game returns a point estimate; the binary discriminant
    # at the fine tolerance must still flip across its reported bracket
    rec = bisect(eq, mode, bracket, tol=1e-9)
    assert abs(rec.value - ref) < 3e-9
    assert rec.bracket_width <= 1e-9
    fine = _fine_rel_tol(eq, 1e-10, 1e-9)
    half = 0.5 * rec.bracket_width
    ends = (_record(eq, SearchMode(mode), x, fine) for x in (rec.value - half, rec.value + half))
    assert _flip_poles(*ends) == rec.pole_count


def _is_coarse(cfg):
    return cfg.rel_tol == eigensolver._COARSE


def _datum(mode, init):
    """The trial datum x of a probe's initial data."""
    return init.slope0 if SearchMode.coerce(mode).kind is ModeKind.SLOPE else init.y0


def _law_count(eq, mode, x):
    """N = (|x| / coeff)^(1/p) + 1 rounded down, the pole-count law's bound
    on the number of critical values at or below |x|."""
    spec = eq.modes[SearchMode.coerce(mode).kind]
    return int((abs(x) / spec.coeff) ** (1.0 / spec.exponent)) + 1


def _law_cap(eq, mode, x):
    """The pole cap the pole-count law gives a full-horizon probe of x:
    N // 2 + 2 in the negative direction and N + 1 in the positive one."""
    n = _law_count(eq, mode, x)
    return n // 2 + 2 if eq.modes[SearchMode.coerce(mode).kind].direction is Direction.NEGATIVE_T else n + 1


def _is_full(eq, mode, args):
    """True for a full-horizon probe, which caps its poles by the pole-count
    law for its datum, in every mode; False for one that stops at its own t
    under the default cap."""
    _, init, _, cfg = args
    return cfg.max_poles == _law_cap(eq, mode, _datum(mode, init))


def _check_coarse_probes(eq, mode, calls):
    """At the scan tolerance only the two bracket ends run to the full
    horizon. At most one more probe runs there: the stable end again,
    stopped at its own t, since the end game reads past its stop in the
    stable well."""
    coarse = [args for args in calls if _is_coarse(args[3])]
    full = [args[1] for args in coarse if _is_full(eq, mode, args)]
    again = [args[1] for args in coarse if not _is_full(eq, mode, args)]
    assert len(full) <= 2 and len(again) <= 1
    for init in again:
        assert init in full
        end = _record(eq, SearchMode.coerce(mode), _datum(mode, init), eigensolver._COARSE)
        assert end.key is ClassTag.STABLE_OSCILLATION


# Stop-at-T probes and Illinois calls of each END_GAME_CASES bisect. Every
# Illinois call returns its last iterate unprobed: a loop that probed it too
# ran 18, 21, 25 and 12 stop-at-T probes, one more per call.
_STOP_AT_T_PROBES = {
    ("p1", ModeKind.SLOPE): (16, 2),
    ("p1", ModeKind.VALUE): (18, 3),
    ("p2", ModeKind.SLOPE): (22, 3),
    ("p2", ModeKind.VALUE): (10, 2),
}


@END_GAME_CASES
def test_end_game_probe_count(monkeypatch, eq, mode, bracket, ref):
    # Only the two bracket ends are probed at the scan tolerance to the full
    # horizon (see _check_coarse_probes). The matched passes stop their
    # probes at the matching time, so only the two certificate probes run to
    # the full horizon, and all of them together integrate less than half of
    # the time span that bisecting at the fine tolerance (15 probes to
    # t = -28 for the first of these cases) would. A full-horizon probe
    # ends by its class rule, short of its horizon, so the span a probe
    # integrates is read from where it stopped. No stop-at-T probe runs at
    # the returned value: only the certificate checks it.
    calls = counted_probes(monkeypatch)
    illinois_calls = []
    real_illinois = eigensolver._illinois

    def illinois(*args):
        illinois_calls.append(args)
        return real_illinois(*args)

    monkeypatch.setattr(eigensolver, "_illinois", illinois)
    stops = []
    counted = eigensolver.integrate

    def integrate(*args, **kwargs):
        traj = counted(*args, **kwargs)
        stops.append(abs(traj.terminal_t))
        return traj

    monkeypatch.setattr(eigensolver, "integrate", integrate)
    rec = bisect(eq, mode, bracket, tol=1e-9)
    assert abs(rec.value - ref) < 3e-9
    fine = [(args, span) for args, span in zip(calls, stops) if not _is_coarse(args[3])]
    _check_coarse_probes(eq, mode, calls)
    assert sum(_is_full(eq, mode, args) for args, _ in fine) <= 2
    assert sum(span for _, span in fine) < 0.5 * 15 * 28.0
    short = [_datum(mode, args[1]) for args, _ in fine if not _is_full(eq, mode, args)]
    assert rec.value not in short
    assert (len(short), len(illinois_calls)) == _STOP_AT_T_PROBES[eq.name, mode]


def test_end_game_failure_raises_bisection_error(monkeypatch):
    # a matched root off by 1e-7 cannot be trusted: the search raises a
    # typed error, and a table that meets it stops there as a partial table
    real_illinois = eigensolver._illinois

    def off_illinois(*args, **kwargs):
        return real_illinois(*args, **kwargs) + 1e-7

    # the end game's own refusals: Illinois on a jump that no root
    # resolves (after probing each of its 40 iterates), and two ends trapped
    # in the stable well, where V <= 0 on the separatrix at every sample time
    probed = []
    with pytest.raises(eigensolver._Unmatched, match="did not converge .* in 40 steps"):
        real_illinois(lambda x: probed.append(x) or (1.0 if x > 0.3 else -1.0), 0.0, -1.0, 1.0, 1.0, 1e-300)
    assert len(probed) == 40
    stable = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, IntegrationConfig(t_horizon=-20.0))
    with pytest.raises(eigensolver._Unmatched, match="no matching time"):
        eigensolver._matching_start(PAINLEVE_I, [stable, stable])
    monkeypatch.setattr(eigensolver, "_illinois", off_illinois)
    with pytest.raises(BisectionError):
        bisect(PAINLEVE_I, ModeKind.SLOPE, (1.8, 1.9), tol=1e-9)
    with pytest.raises(PartialTableError) as info:
        eigen_table(PAINLEVE_I, "slope", 2)
    assert info.value.failed_index == 1
    assert info.value.records == []
    # a scan that finds no flip up to its limit fails the same way
    monkeypatch.setattr(eigensolver, "_walk", lambda *args: iter(()))
    with pytest.raises(PartialTableError, match=r"scan passed \|x\| = .* with only 0 of 2 eigenvalues") as info:
        eigen_table(PAINLEVE_I, "slope", 2)
    assert info.value.failed_index == 1 and isinstance(info.value.__cause__, BisectionError)


def _illinois_probing_its_root(g, a, ga, b, gb, stop):
    """The Illinois loop as it was when it also probed the iterate it
    returned, verbatim: the reference for _illinois."""
    x_old, side = math.inf, 0
    for _ in range(40):
        x = b - gb * (b - a) / (gb - ga)
        gx = g(x)
        if (gx > 0.0) == (gb > 0.0):
            b, gb, ga, side = x, gx, 0.5 * ga if side == 1 else ga, 1
        else:
            a, ga, gb, side = x, gx, 0.5 * gb if side == -1 else gb, -1
        if gx == 0.0 or abs(x - x_old) < stop or abs(b - a) < stop:
            return x
        x_old = x
    raise eigensolver._Unmatched(f"Illinois did not converge in ({a:.12g}, {b:.12g}) in 40 steps")


# g on (a, b): linear, curved, and the shape of a first matched pass's g
# (FOUND in CHANGES.md), nearly flat from 15 to 23 and then steeply negative
ILLINOIS_SHAPES = {
    "linear": (lambda x: x - 0.3, 0.0, 1.0),
    "curved": (lambda x: math.exp(4.0 * x) - 5.0, 0.0, 1.0),
    "flat": (lambda x: 15.0 + 8.0 * x - 4e4 * max(x - 0.9, 0.0) ** 2, 0.0, 1.0),
}


@pytest.mark.parametrize("stop", [1e-3, 1e-10])
@pytest.mark.parametrize("g,a,b", list(ILLINOIS_SHAPES.values()), ids=list(ILLINOIS_SHAPES))
def test_illinois_returns_its_root_unprobed(g, a, b, stop):
    # the iterate whose secant step fell below stop is returned as it is:
    # the same root as the loop that probed it, with that one probe fewer
    def logged(probed):
        def g_logged(x):
            probed.append(x)
            return g(x)
        return g_logged

    probed, probed_before = [], []
    root = eigensolver._illinois(logged(probed), a, g(a), b, g(b), stop)
    assert root == _illinois_probing_its_root(logged(probed_before), a, g(a), b, g(b), stop)
    assert root not in probed
    assert probed == probed_before[:-1]


def test_illinois_returns_an_exact_zero_at_once():
    # an iterate where g is exactly 0 is the root: one probe, no more steps
    probed = []
    root = eigensolver._illinois(lambda x: probed.append(x) or x - 0.5, 0.0, -0.5, 1.0, 0.5, 1e-12)
    assert root == 0.5 and probed == [0.5]


def test_matched_root_refuses_past_the_widening_bound(monkeypatch):
    # a first pass that lands near the bracket's lower end, far from the
    # separatrix, leaves g of one sign on every later bracket it may try, up
    # to the first pass's own width: the end game refuses there rather than
    # widen further
    real_illinois, calls = eigensolver._illinois, []

    def first_pass_off(g, a, ga, b, gb, stop):
        calls.append((a, b))
        return a + 1e-3 * (b - a) if len(calls) == 1 else real_illinois(g, a, ga, b, gb, stop)

    monkeypatch.setattr(eigensolver, "_illinois", first_pass_off)
    with pytest.raises(BisectionError, match="at the widening bound"):
        bisect(PAINLEVE_I, "slope", (1.8, 1.9))
    assert len(calls) == 1


@pytest.mark.parametrize("bracket", list(P2_SLOPE_B1_BRACKETS.values()), ids=list(P2_SLOPE_B1_BRACKETS))
def test_matched_end_game_converges_on_p2_slope_b1(monkeypatch, bracket):
    # on these scan brackets of P-II slope b1 the third matched pass lands
    # several tol off; the fourth widens its bracket until it holds the value
    # and converges, with no bisection: two full-horizon scan-tolerance
    # probes (and the stable end's stop-at-T run) and two full-horizon fine
    # probes only
    calls = counted_probes(monkeypatch)
    rec = bisect(PAINLEVE_II, "slope", bracket, tol=1e-9)
    assert abs(rec.value - P2_SLOPE_REF[1]) < 3e-9
    assert rec.pole_count == 0
    full = [args for args in calls if not _is_coarse(args[3]) and _is_full(PAINLEVE_II, "slope", args)]
    _check_coarse_probes(PAINLEVE_II, "slope", calls)
    assert len(full) <= 2


def test_search_refuses_probes_stopped_by_step_underflow(monkeypatch):
    # with a step floor of 0.5 every run underflows at its first step; the
    # probe raises instead of classifying the stub it reached, and so does
    # separatrix_check's run, whose stub would read divergent+ (P-II value)
    # or as never tracking a branch curve (P-I and P-II slope)
    monkeypatch.setattr(integrator, "_MIN_STEP", 0.5)
    for eq, mode, bracket in [(PAINLEVE_I, "slope", (1.8, 1.9)), (PAINLEVE_II, "value", (1.2, 1.25))]:
        with pytest.raises(IntegrationError, match=f"probe x = {bracket[0]} stopped by step underflow"):
            bisect(eq, mode, bracket)
    for eq, mode, value in [(PAINLEVE_I, "slope", P1_SLOPE_REF[1]), (PAINLEVE_II, "slope", P2_SLOPE_REF[1]),
                            (PAINLEVE_II, "value", P2_VALUE_REF[1])]:
        with pytest.raises(IntegrationError, match=f"probe x = {value} stopped by step underflow"):
            separatrix_check(eq, mode, value)
    with pytest.raises(PartialTableError, match="stopped by step underflow") as info:
        toy_eigen_table(2)
    assert isinstance(info.value.__cause__, IntegrationError)


def test_matched_probes_stopped_by_step_underflow_raise_integration_error(monkeypatch):
    # only the probes that stop at a matching time T underflow (they alone
    # keep the default pole cap): a matched pass refuses them as the scan
    # does its own, rather than failing the match with a BisectionError, and
    # a table stops there as a partial table
    real = eigensolver.integrate

    def integrate(eq, init, direction, cfg, until=None):
        with monkeypatch.context() as m:
            if cfg.max_poles == IntegrationConfig().max_poles:
                m.setattr(integrator, "_MIN_STEP", 0.5)
            return real(eq, init, direction, cfg, until=until)

    monkeypatch.setattr(eigensolver, "integrate", integrate)
    with pytest.raises(IntegrationError, match="stopped by step underflow at t = 0"):
        bisect(PAINLEVE_II, "value", (1.2, 1.25))
    for build in (lambda: eigen_table(PAINLEVE_II, "value", 1), lambda: toy_eigen_table(1)):
        with pytest.raises(PartialTableError, match="stopped by step underflow") as info:
            build()
        assert isinstance(info.value.__cause__, IntegrationError)
        assert info.value.failed_index == 1


@pytest.mark.parametrize(
    "kwargs,message",
    [({"value": math.nan}, "value = nan must be finite"),
     ({"value": math.inf}, "value = inf must be finite")],
    ids=["value-nan", "value-inf"],
)
@pytest.mark.parametrize("mode", ["slope", "value"])
def test_separatrix_check_rejects_bad_arguments(monkeypatch, kwargs, mode, message):
    # checked before any run: unchecked, value = nan blamed the horizon it made
    calls = counted_probes(monkeypatch)
    with pytest.raises(ValueError, match=message):
        separatrix_check(PAINLEVE_II, mode, **kwargs)
    assert calls == []


def test_separatrix_check_rejects_generic_data_and_the_toy_model(monkeypatch):
    # below c_1 the run blows up past one pole without decaying; the toy
    # model has no separatrix run to read and is refused before any run
    with pytest.raises(ClassificationError, match="never decays to zero"):
        separatrix_check(PAINLEVE_II, "value", 1.21)
    # between b_1 and b_2 the run cascades without hugging a branch curve
    with pytest.raises(ClassificationError, match="never tracks a branch curve"):
        separatrix_check(PAINLEVE_I, "slope", 2.5)
    calls = counted_probes(monkeypatch)
    with pytest.raises(ValueError, match="count_toy_maxima"):
        separatrix_check(TOY_MODEL, "toy", TOY_REF[1])
    assert calls == []


def test_separatrix_check_validates_a_deep_positive_direction_record():
    # c_25 crosses 25 poles before it decays, past t = 25; its check runs
    # the search's own full-horizon probe, so it reads decay, not the
    # divergence a run stopped at t = 25 showed
    rec = bisect(PAINLEVE_II, "value", (3.54, 3.57), index=25)
    cls = separatrix_check(PAINLEVE_II, "value", rec.value)
    assert cls.tag is ClassTag.DECAY_TO_ZERO
    assert cls.pole_count == rec.pole_count == 25


_NO_TOY_MODE = "p1 has no toy mode; its modes are: slope, value"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: scan_brackets(PAINLEVE_I, "toy", (0.5, 1.0), 0.1), _NO_TOY_MODE),
        (lambda: bisect(PAINLEVE_I, ModeKind.TOY, (1.8, 1.9)), _NO_TOY_MODE),
        (lambda: eigen_table(PAINLEVE_I, "toy", 2), _NO_TOY_MODE),
        (lambda: separatrix_check(PAINLEVE_I, "toy", 1.0), _NO_TOY_MODE),
        (lambda: scan_brackets(TOY_MODEL, "slope", (0.5, 1.0), 0.1), "toy has no slope mode; its modes are: toy"),
        # a mode that is no SearchMode, ModeKind or mode name
        (lambda: bisect(PAINLEVE_I, 5, (1.0, 2.0)), "5 is not a valid ModeKind"),
        (lambda: eigen_table(PAINLEVE_I, 5, 3), "5 is not a valid ModeKind"),
        (lambda: scan_brackets(PAINLEVE_I, None, (0.5, 1.0), 0.1), "None is not a valid ModeKind"),
        (lambda: separatrix_check(PAINLEVE_I, 1.5, 1.0), "1.5 is not a valid ModeKind"),
    ],
    ids=["scan_brackets", "bisect", "eigen_table", "separatrix_check", "toy-scan_brackets",
         "int-bisect", "int-eigen_table", "none-scan_brackets", "float-separatrix_check"],
)
def test_mode_missing_from_equation(monkeypatch, call, message):
    calls = counted_probes(monkeypatch)
    with pytest.raises(ValueError, match=message):
        call()
    assert calls == []


@pytest.mark.parametrize("n_max", [1.5, math.nan, True, 0], ids=["fraction", "nan", "bool", "zero"])
def test_eigen_table_rejects_a_bad_record_count(monkeypatch, n_max):
    # unchecked, n_max = 1.5 computed 19 toy records before it raised
    # PartialTableError("... only 19 of 1.5 eigenvalues found")
    calls = counted_probes(monkeypatch)
    with pytest.raises(ValueError, match="n_max = .* must be an int of at least 1"):
        eigen_table(TOY_MODEL, "toy", n_max)
    assert calls == []


@pytest.mark.parametrize("eq,mode,n_max", [(TOY_MODEL, "toy", 61), (PAINLEVE_I, "slope", 31)], ids=["toy", "p1-slope"])
def test_eigen_table_takes_any_record_count(monkeypatch, eq, mode, n_max):
    # no mode caps its table: a count past 60 (toy) or 30 starts the scan,
    # here stopped at its first probe
    calls = counted_probes(monkeypatch, fail_at=1)
    with pytest.raises(PartialTableError) as info:
        eigen_table(eq, mode, n_max)
    assert info.value.failed_index == 1 and len(calls) == 1


def test_benchmark_copies_reference_values():
    # perfbench checks its critical values against its own copies of the
    # references, so that an edit to the tests cannot loosen them; hold those
    # copies to the tests' ones
    tests = {("p1", "slope"): P1_SLOPE_REF, ("p1", "value"): P1_VALUE_REF,
             ("p2", "slope"): P2_SLOPE_REF, ("p2", "value"): P2_VALUE_REF}
    refs = benchmark_copy("REFS")
    assert set(refs) == set(tests)
    for key, values in refs.items():
        for n, value in values.items():
            assert value == tests[key][n], (key, n)
    assert benchmark_copy("TOY_REF") == TOY_REF


def test_benchmark_names_exist():
    # perfbench patches the names painleve.eigensolver imports and calls the
    # public search functions; a rename or a new signature would stop the
    # benchmark from running
    for name in benchmark_copy("EIGENSOLVER_IMPORTS"):
        assert hasattr(eigensolver, name), name
    for name in ("scan_brackets", "bisect", "toy_eigen_table"):
        assert hasattr(eigensolver, name) and name in painleve.__all__, name
        assert getattr(painleve, name) is getattr(eigensolver, name)
    # the call shapes of perfbench/workloads.py
    inspect.signature(scan_brackets).bind(PAINLEVE_I, "slope", (1.8, 1.9), 0.025)
    inspect.signature(bisect).bind(PAINLEVE_I, "slope", (1.8, 1.9), tol=1e-9, index=1)
    inspect.signature(toy_eigen_table).bind(3, tol=1e-6)
    # the traj op and its energy check
    traj = painleve.integrate(PAINLEVE_I, painleve.InitialData(0.0, 2.504031103), painleve.Direction.NEGATIVE_T,
                              IntegrationConfig(t_horizon=-4.0))
    assert traj.poles and traj.config.rel_tol > 0.0
    inspect.signature(painleve.classify).bind(PAINLEVE_I, traj)
    h = painleve.energy(PAINLEVE_I, traj.real_y(), traj.real_yp())
    assert len(h) == len(painleve.fluctuation_integral(PAINLEVE_I, traj))
    for a in (np.abs(traj.y), np.abs(traj.yp)):
        assert isinstance(a, np.ndarray) and np.isfinite(a).all()


def test_benchmark_copies_scan_tolerance():
    # perfbench splits traced probes into coarse and fine by comparing
    # rel_tol with its own copy of the scan tolerance
    assert benchmark_copy("COARSE_REL_TOL") == eigensolver._COARSE


def test_bisect_first_critical_value():
    rec = bisect(PAINLEVE_I, ModeKind.VALUE, (-0.8, -0.7), tol=1e-9)
    assert abs(rec.value - P1_VALUE_REF[1]) < 3e-9
    assert rec.pole_count == 0


def test_bisect_requires_class_flip():
    with pytest.raises(BisectionError):
        bisect(PAINLEVE_I, ModeKind.SLOPE, (2.0, 2.2), tol=1e-6)


def test_bisect_tolerance_guard():
    with pytest.raises(ValueError):
        bisect(PAINLEVE_I, ModeKind.SLOPE, (1.8, 1.9), tol=1e-12)


def test_fine_cfg_keeps_a_tighter_caller_tolerance():
    assert _fine_rel_tol(PAINLEVE_I, 1e-12, 1e-9) <= 1e-12


def test_every_probe_config_follows_one_rule(monkeypatch):
    # scan, bracket ends, matched passes, certificates and separatrix_check
    # alike: every integration is one call of the one probe path, _run, and
    # a probe's config holds its rel_tol and what sizes it. A full-horizon
    # probe caps its poles by the pole-count law for its datum, and its
    # horizon lies one time unit per critical value at or below |x| past
    # the integrator's default, in every mode, the toy model's too; a
    # matched probe stops at its own t and keeps the default cap.
    # separatrix_check's run, the last, is a full-horizon probe at 1e-11.
    default = IntegrationConfig()
    searches = [
        (PAINLEVE_I, ModeKind.SLOPE,
         lambda: separatrix_check(PAINLEVE_I, "slope", eigen_table(PAINLEVE_I, ModeKind.SLOPE, 3)[-1].value),
         {1e-10, 1e-11}),
        (PAINLEVE_II, ModeKind.VALUE,
         lambda: separatrix_check(PAINLEVE_II, "value", bisect(PAINLEVE_II, ModeKind.VALUE, (1.2, 1.25)).value),
         {1e-10, 1e-11}),
        (TOY_MODEL, ModeKind.TOY, lambda: toy_eigen_table(3), {1e-9}),
    ]
    for eq, mode, search, rel_tols in searches:
        calls = counted_probes(monkeypatch)
        runs = []  # the integrate calls each _run made
        real_run = eigensolver._run

        def run(*args, **kwargs):
            before = len(calls)
            try:
                return real_run(*args, **kwargs)
            finally:
                runs.append(len(calls) - before)

        monkeypatch.setattr(eigensolver, "_run", run)
        search()
        monkeypatch.undo()
        assert runs and runs.count(1) == len(runs) == len(calls)
        assert {eigensolver._COARSE, *rel_tols} <= {args[3].rel_tol for args in calls}
        kinds = []
        for args in calls:
            _, init, direction, cfg = args
            full = _is_full(eq, mode, args)
            kinds.append(full)
            if full:
                n = _law_count(eq, mode, _datum(mode, init))
                assert cfg.t_horizon == default.resolved_horizon(eq, direction) + direction.sign * n
            else:
                assert cfg.max_poles == default.max_poles
        assert set(kinds) == {True, False}
        if eq.pole_order:
            assert kinds[-1] and calls[-1][3].rel_tol == 1e-11


@pytest.mark.parametrize(
    "eq,mode,reach",
    [(PAINLEVE_I, ModeKind.SLOPE, 16.05), (PAINLEVE_I, ModeKind.VALUE, 3.99), (PAINLEVE_II, ModeKind.SLOPE, 11.2)],
    ids=["p1-slope", "p1-value", "p2-slope"],
)
def test_negative_pole_cap_keeps_every_class(eq, mode, reach):
    # the negative-direction cap rests on the pole-count law for stable data,
    # which is measured, not proven: on a sparse grid of both signs out to
    # |x_30|, a capped scan probe has the class key of a run to its own
    # horizon under the default cap, and every stable probe stays two poles
    # below its cap, so the cap never decides a class. A stable probe stops
    # in the stable well, with the pole count of that run to the horizon.
    search = SearchMode(mode)
    stable = 0
    for x in (np.linspace(-reach, reach, 15) + 0.0123 * reach).tolist():
        capped = _record(eq, search, x, eigensolver._COARSE)
        cfg = IntegrationConfig(eigensolver._COARSE, t_horizon=capped.traj.config.t_horizon)
        full = integrate(eq, eigensolver._initial_data(search, x), Direction.NEGATIVE_T, cfg)
        key = eigensolver._class_key(eq, full)
        assert capped.key == key
        if key is ClassTag.STABLE_OSCILLATION:
            assert capped.traj.stopped_by == "settled" and len(capped.traj.poles) == len(full.poles)
            stable += 1
            assert len(capped.traj.poles) <= _law_cap(eq, mode, x) - 2
        else:
            # it crossed the cap's poles and stopped at the next one
            assert capped.traj.stopped_by == "pole-cap"
            assert len(capped.traj.poles) == _law_cap(eq, mode, x) + 1
    assert stable >= 3


def test_eigen_table_probes_no_datum_twice_at_scan_tolerance(monkeypatch):
    # the end game starts from the scan's own records of the bracket ends: no
    # datum runs twice to the full horizon at the scan tolerance, and a
    # scan-tolerance probe that stops at its own t runs a scanned datum again
    calls = counted_probes(monkeypatch)
    eigen_table(PAINLEVE_I, ModeKind.SLOPE, 3)
    coarse = [args for args in calls if _is_coarse(args[3])]
    scan = [args[1] for args in coarse if _is_full(PAINLEVE_I, ModeKind.SLOPE, args)]
    assert len(scan) > 3
    assert len(set(scan)) == len(scan)
    assert all(args[1] in scan for args in coarse if not _is_full(PAINLEVE_I, ModeKind.SLOPE, args))


def _record_bits(search):
    """What a search returns, exactly: its record with floats in hex, or the
    type and message of what it raised."""
    try:
        rec = search()
    except Exception as exc:  # any failure: its type and message are compared
        return type(exc), str(exc)
    return rec.index, rec.value.hex(), rec.bracket_width.hex(), rec.pole_count, rec.mode


def _scan_then_bisect_probes(monkeypatch, eq, mode, window, ref, **search):
    # the public flow: bisect starts from the scan's records of the bracket
    # ends, so it probes neither end again to the full horizon; at the scan
    # tolerance it runs only a stable end again, stopped at its own t. The
    # record is the one the plain tuple gives bit for bit.
    calls = counted_probes(monkeypatch)
    lo, hi = window
    brackets = scan_brackets(eq, mode, window, (hi - lo) / 4 * (1.0 + 1e-9))
    scanned = len(calls)
    assert brackets and brackets[0][0] < ref < brackets[0][1]
    rec = bisect(eq, mode, brackets[0], **search)
    again = [args for args in calls[scanned:] if _is_coarse(args[3])]
    stable_ends = [end.x for end in brackets[0].ends if end.key is ClassTag.STABLE_OSCILLATION]
    assert [_datum(mode, args[1]) for args in again] == stable_ends
    assert not any(_is_full(eq, mode, args) for args in again)
    data = [(args[1], args[3]) for args in calls]
    assert len(set(data)) == len(data)
    assert _record_bits(lambda: rec) == _record_bits(lambda: bisect(eq, mode, tuple(brackets[0]), **search))


@END_GAME_CASES
def test_scan_then_bisect_probes_no_datum_twice(monkeypatch, eq, mode, bracket, ref):
    _scan_then_bisect_probes(monkeypatch, eq, mode, bracket, ref)


def test_toy_scan_then_bisect_probes_no_datum_twice(monkeypatch):
    _scan_then_bisect_probes(monkeypatch, TOY_MODEL, "toy", (2.3, 2.5), TOY_REF[2], tol=1e-6, rel_tol=1e-9)


@END_GAME_CASES
def test_every_stable_probe_stops_in_the_well(monkeypatch, eq, mode, bracket, ref):
    # Every full-horizon probe, of the scan, of bisect's bracket ends and of
    # the certificates, stops once its class is final: in the negative
    # direction each stable one stops in the well, in the positive one none
    # stops early. The end game runs the stable bracket end again, stopped at
    # its own t, and every sample of that run before its last is the one the
    # full run of that datum takes without the stop. With the stop withheld a
    # stable probe runs on to its horizon; read as settled there, where the
    # well's rule holds at its last sample, it gives the record bit for bit.
    probes = []  # (args, until, trajectory) of each integration
    real = eigensolver.integrate

    def integrate(*args, until=None):
        traj = real(*args, until=until)
        probes.append((args, until, traj))
        return traj

    monkeypatch.setattr(eigensolver, "integrate", integrate)
    lo, hi = bracket
    assert len(scan_brackets(eq, mode, bracket, (hi - lo) / 4 * (1.0 + 1e-9))) == 1
    assert len(probes) == 5
    rec = bisect(eq, mode, bracket)
    assert abs(rec.value - ref) < 3e-9
    negative = eq.modes[mode].direction is Direction.NEGATIVE_T
    full = [(args, traj) for args, _, traj in probes if _is_full(eq, mode, args)]
    assert len(full) == 9
    settled = [traj.stopped_by == "settled" for _, traj in full]
    assert settled == [eigensolver._class_key(eq, traj) is ClassTag.STABLE_OSCILLATION for _, traj in full]
    assert any(settled) == negative
    again = [probe for probe in probes if _is_coarse(probe[0][3]) and not _is_full(eq, mode, probe[0])]
    assert len(again) == negative
    for args, until, traj in again:
        whole = real(*next(a for a, _ in full if a[1] == args[1] and _is_coarse(a[3])))
        n = len(traj.t) - 1
        assert until is None and traj.stopped_by == "horizon" and n < len(whole.t)
        for a, b in [(traj.t, whole.t), (traj.y, whole.y), (traj.yp, whole.yp)]:
            assert np.array_equal(a[:n], b[:n])

    def unstopped(*args, until=None):
        traj = real(*args)
        if until and traj.stopped_by == "horizon" and until(traj.terminal_t, traj.y[-1], traj.yp[-1]):
            return dataclasses.replace(traj, stopped_by="settled")
        return traj

    monkeypatch.setattr(eigensolver, "integrate", unstopped)
    assert _record_bits(lambda: bisect(eq, mode, bracket)) == _record_bits(lambda: rec)


def test_scan_bracket_copies_pickles_and_json_are_plain_tuples():
    (bracket,) = scan_brackets(PAINLEVE_I, "slope", (1.8, 1.9), 0.05)
    expected = _record_bits(lambda: bisect(PAINLEVE_I, "slope", bracket))
    for trip in (copy.copy, copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b)),
                 lambda b: tuple(json.loads(json.dumps(b)))):
        plain = trip(bracket)
        assert type(plain) is tuple and plain == bracket == (bracket[0], bracket[1])
        assert _record_bits(lambda: bisect(PAINLEVE_I, "slope", plain)) == expected


def test_bisect_reuses_bracket_ends_only_for_their_own_search():
    # a P-I slope bracket handed to another mode or equation behaves as its
    # plain tuple does: the (eq, mode) it was scanned for decides, not the
    # records it carries
    (bracket,) = scan_brackets(PAINLEVE_I, "slope", (1.8, 1.9), 0.05)
    for eq, mode in [(PAINLEVE_I, "value"), (PAINLEVE_II, "slope")]:
        outcome = _record_bits(lambda: bisect(eq, mode, bracket))
        assert outcome == _record_bits(lambda: bisect(eq, mode, tuple(bracket)))


def test_eigen_table_checks_tolerance_before_scanning(monkeypatch):
    calls = counted_probes(monkeypatch)
    with pytest.raises(ValueError, match="below 10 \\* rel_tol"):
        eigen_table(PAINLEVE_I, ModeKind.SLOPE, 3, tol=1e-11)
    for search in (lambda **kw: eigen_table(PAINLEVE_I, ModeKind.SLOPE, 3, **kw),
                   lambda **kw: bisect(PAINLEVE_I, ModeKind.SLOPE, (1.8, 1.9), **kw)):
        with pytest.raises(ValueError, match="rel_tol = 0.0 must be positive"):
            search(rel_tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"tol = {tol} must be finite"):
                search(tol=tol)
    assert calls == []


def test_p2_value_growth_coefficient_bounds_references():
    # each positive-direction probe caps its poles at (|x| / coeff)^(1/p) + 2,
    # which covers the n poles of c_n only while coeff stays below c_n / n^p
    spec = PAINLEVE_II.modes[ModeKind.VALUE]
    for n, c in P2_VALUE_REF.items():
        assert (c / spec.coeff) ** (1.0 / spec.exponent) >= n
    # in every mode coeff is a lower bound on |x_n| / n^p for n >= 2, so
    # N(x) = (|x| / coeff)^(1/p) + 1, rounded down, counts at least the n
    # critical values at or below |x_n|: each probe's pole cap (N // 2 + 2
    # in the negative direction) is sized from N
    for eq, mode, refs in [(PAINLEVE_I, ModeKind.SLOPE, P1_SLOPE_REF), (PAINLEVE_I, ModeKind.VALUE, P1_VALUE_REF),
                           (PAINLEVE_II, ModeKind.SLOPE, P2_SLOPE_REF), (PAINLEVE_II, ModeKind.VALUE, P2_VALUE_REF),
                           (TOY_MODEL, ModeKind.TOY, TOY_REF)]:
        spec = eq.modes[mode]
        for n, x in refs.items():
            assert int((abs(x) / spec.coeff) ** (1.0 / spec.exponent)) + 1 >= n
            assert n == 1 or abs(x) / n ** spec.exponent >= spec.coeff


def test_probes_of_huge_data_fail_with_typed_errors():
    # the pole cap is counted without float overflow, so a bracket far past
    # any table fails as its config or integration does (an unbounded
    # horizon, a step underflow), not with OverflowError
    for eq, mode, bracket in [(PAINLEVE_I, "slope", (1e300, 2e300)), (PAINLEVE_II, "value", (1e300, 2e300))]:
        with pytest.raises((ValueError, IntegrationError)):
            bisect(eq, mode, bracket)


def test_bisect_index_only_labels_the_record():
    # the probes are sized from their data, so a far-out bracket needs no
    # index hint: with the default index 1 this finds c_13 and its 13 poles
    rec = bisect(PAINLEVE_II, ModeKind.VALUE, (2.84, 2.88), tol=1e-9)
    assert abs(rec.value - P2_VALUE_REF[13]) < 1e-8
    assert rec.pole_count == 13
    assert rec.index == 1


def test_bisect_last_p2_value_index():
    # the certificate of c_29 reads the sign of its 30th blow-up, which lies
    # past t = 30, inside its horizon of t = 71 (3.735381955 was computed by
    # this code, not quoted)
    rec = bisect(PAINLEVE_II, ModeKind.VALUE, (3.73, 3.74), tol=1e-9, index=29)
    assert rec.pole_count == 29
    assert abs(rec.value - 3.735381955) < 1e-8


def test_bisect_p2_value_past_the_table():
    # each probe's horizon grows with the critical values below its datum,
    # so the certificate of c_50 reaches its 51st blow-up (a horizon fixed
    # at t = 40 stopped it short) and the record validates as decay after
    # 50 poles (4.479097862998857 was computed by this code, not quoted)
    rec = bisect(PAINLEVE_II, ModeKind.VALUE, (4.476122044853204, 4.482054785192478), index=50)
    assert rec.pole_count == 50
    assert abs(rec.value - 4.479097862998857) < 1e-8
    cls = separatrix_check(PAINLEVE_II, "value", rec.value)
    assert cls.tag is ClassTag.DECAY_TO_ZERO and cls.pole_count == 50
    # its first pole lies within 0.3 of t = 0, and the probe's first circle
    # still enters ahead of the start
    probe = eigensolver._run(PAINLEVE_II, SearchMode.coerce("value"), rec.value, 1e-11)
    assert (np.diff(probe.t) > 0.0).all()


def test_full_probe_that_reaches_its_horizon_raises_integration_error():
    # a full-horizon probe ends by its class rule, settled or at its pole
    # cap; one that reaches its horizon has no final class, and the search
    # refuses it rather than reading its tail. A P-I spec whose runs never
    # settle leaves every stable probe so.
    unsettled = dataclasses.replace(PAINLEVE_I, settled=lambda *_: False)
    with pytest.raises(IntegrationError, match="probe x = 1.0 reached its horizon t = -61 "):
        _record(unsettled, SearchMode(ModeKind.SLOPE), 1.0, eigensolver._COARSE)
    with pytest.raises(PartialTableError, match="reached its horizon") as info:
        eigen_table(unsettled, "slope", 2)
    assert info.value.failed_index == 1 and isinstance(info.value.__cause__, IntegrationError)


def test_p1_slope_table(p1_slope_table):
    for rec in p1_slope_table:
        ref = P1_SLOPE_REF.get(rec.index)
        if ref is not None:
            assert abs(rec.value - ref) <= 1e-6
        assert rec.bracket_width <= 1e-9
        assert rec.pole_count == rec.index // 2
    vals = [r.value for r in p1_slope_table]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_p1_value_table(p1_value_table):
    for rec in p1_value_table:
        ref = P1_VALUE_REF.get(rec.index)
        if ref is not None:
            assert abs(rec.value - ref) <= 1e-6
        assert rec.pole_count == rec.index // 2
    vals = [r.value for r in p1_value_table]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing (negative)


def test_p2_slope_table(p2_slope_table):
    for rec in p2_slope_table:
        ref = P2_SLOPE_REF.get(rec.index)
        if ref is not None:
            assert abs(rec.value - ref) <= 1e-6
        assert rec.pole_count == rec.index // 2
    # the deep entry reproduces the reference to a few parts in 1e9
    assert abs(p2_slope_table[20].value - P2_SLOPE_REF[21]) <= 1e-7
    vals = [r.value for r in p2_slope_table]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_p2_value_table(p2_value_table):
    for rec in p2_value_table:
        ref = P2_VALUE_REF.get(rec.index)
        if ref is not None:
            assert abs(rec.value - ref) <= 1e-6
        assert rec.pole_count == rec.index
    vals = [r.value for r in p2_value_table]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_converged_records_validate_as_separatrices(request):
    # every record of the four session tables: in the negative direction a
    # separatrix with floor(n/2) poles, on the positive branch for the first
    # equation, alternating between the branches for the second; in the
    # positive direction decay to zero after n poles
    sep = {ClassTag.SEPARATRIX_PLUS, ClassTag.SEPARATRIX_MINUS}
    for eq, table, tags in [(PAINLEVE_I, "p1_slope_table", {ClassTag.SEPARATRIX_PLUS}),
                            (PAINLEVE_I, "p1_value_table", {ClassTag.SEPARATRIX_PLUS}),
                            (PAINLEVE_II, "p2_slope_table", sep),
                            (PAINLEVE_II, "p2_value_table", {ClassTag.DECAY_TO_ZERO})]:
        found = []
        for rec in request.getfixturevalue(table):
            cls = separatrix_check(eq, rec.mode, rec.value)
            assert cls.tag in tags, (table, rec.index, cls)
            poles = rec.index if cls.tag is ClassTag.DECAY_TO_ZERO else rec.index // 2
            assert cls.pole_count == poles, (table, rec.index, cls)
            found.append(cls.tag)
        if tags == sep:
            assert all(a is not b for a, b in zip(found, found[1:])), found


def test_p2_slope_parity_pairs(p2_slope_table):
    # negative-slope search reproduces the negatives of the positive table
    brackets = scan_brackets(PAINLEVE_II, ModeKind.SLOPE, (-1.7, -0.1), 0.1)
    negs = sorted(bisect(PAINLEVE_II, ModeKind.SLOPE, b, tol=1e-9).value for b in brackets)
    assert len(negs) == 2
    assert negs[0] == pytest.approx(-p2_slope_table[1].value, abs=1e-7)
    assert negs[1] == pytest.approx(-p2_slope_table[0].value, abs=1e-7)


@pytest.mark.slow
def test_slope_growth_insensitive_to_fixed_value(p1_slope_table):
    # Holding y(0) = 1 instead of 0 shifts the conserved quantity by
    # -2 y0^3, so the n-th critical slope differs by ~1/E_n (2.7% at
    # n = 11, shrinking with n); the growth constant itself is identical.
    from painleve import extract_constant, closed_form_constants

    mode = SearchMode(ModeKind.SLOPE, fixed_value=1.0)
    table = eigen_table(PAINLEVE_I, mode, 11, tol=1e-7)
    r11 = table[10].value / p1_slope_table[10].value
    r3 = table[2].value / p1_slope_table[2].value
    assert abs(r11 - 1.0) < 0.035
    assert abs(r11 - 1.0) < abs(r3 - 1.0)  # converging toward 1
    # the energy offset acts like a fractional index shift, so the plain
    # 1/n tail converges slower here; 0.2% still pins the same constant
    res = extract_constant(table, 3.0 / 5.0, 4)
    assert abs(res.estimate - closed_form_constants().p1_slope) < 4e-3


def _recorded_separatrix(monkeypatch, eq, direction):
    """Wrap eq's separatrix in ``direction`` to record the arguments of
    each evaluation."""
    calls = []
    real = eq.separatrix[direction]

    def separatrix(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setitem(eq.separatrix, direction, separatrix)
    return calls


def test_toy_table_evaluates_each_separatrix_once(monkeypatch):
    # three evaluations per eigenvalue: the first matching time (shared by
    # the first pass's g and the next T's predictor), the predictor's
    # midpoint, and the second matching time
    calls = _recorded_separatrix(monkeypatch, TOY_MODEL, Direction.POSITIVE_T)
    table = toy_eigen_table(3)
    assert len(table) == 3
    assert len(calls) == 9
    assert len(set(calls)) == len(calls)


def test_p1_bisect_evaluates_each_separatrix_once(monkeypatch):
    calls = _recorded_separatrix(monkeypatch, PAINLEVE_I, Direction.NEGATIVE_T)
    rec = bisect(PAINLEVE_I, ModeKind.SLOPE, (2.95, 3.05), tol=1e-9)
    assert abs(rec.value - P1_SLOPE_REF[2]) < 3e-9
    assert calls and len(set(calls)) == len(calls)


def test_toy_probe_count(monkeypatch):
    # Beyond the scan, each eigenvalue runs at most two probes to the full
    # horizon, the certificate's: the end game starts from the scan's records
    # of the bracket ends. Every other end-game probe stops at its matching
    # time, well short of it.
    # Every full-horizon probe stops once its maxima count is final; the
    # latest measured stop is t = 4.32, and 6 leaves a margin of 39 %.
    calls = counted_probes(monkeypatch)
    stops = []
    counted = eigensolver.integrate

    def integrate(*args, **kwargs):
        traj = counted(*args, **kwargs)
        stops.append((traj.stopped_by, traj.terminal_t))
        return traj

    monkeypatch.setattr(eigensolver, "integrate", integrate)
    end_games = []
    real_end_game = eigensolver._end_game

    def end_game(*args, **kwargs):
        start = len(calls)
        rec = real_end_game(*args, **kwargs)
        end_games.append(calls[start:])
        return rec

    monkeypatch.setattr(eigensolver, "_end_game", end_game)
    table = toy_eigen_table(3)
    assert len(end_games) == 3
    for probes in end_games:
        full = [_is_full(TOY_MODEL, "toy", args) for args in probes]
        assert sum(full) <= 2
        assert all(args[3].t_horizon <= 0.1 * TOY_MODEL.horizons[Direction.POSITIVE_T]
                   for args, f in zip(probes, full) if not f)
    full = [stop for args, stop in zip(calls, stops) if _is_full(TOY_MODEL, "toy", args)]
    assert full and all(by == "settled" and t < 6.0 for by, t in full)
    for rec in table:
        assert abs(rec.value - TOY_REF[rec.index]) <= 1.5e-4


def _second_end_game(monkeypatch, build):
    """Ordinals of the first and the last probe of the second eigenvalue's
    end game in a clean, counted run of ``build``."""
    with monkeypatch.context() as m:
        calls = counted_probes(m)
        spans = []
        real_end_game = eigensolver._end_game

        def end_game(*args, **kwargs):
            first = len(calls) + 1
            rec = real_end_game(*args, **kwargs)
            spans.append((first, len(calls)))
            return rec

        m.setattr(eigensolver, "_end_game", end_game)
        build()
    return spans[1]


@pytest.mark.parametrize(
    "build,ref",
    [
        (lambda: toy_eigen_table(3), TOY_REF),
        (lambda: eigen_table(PAINLEVE_II, ModeKind.VALUE, 2, tol=1e-6), P2_VALUE_REF),
    ],
    ids=["toy", "p2-value"],
)
def test_table_keeps_records_on_integration_error(monkeypatch, build, ref):
    # the injected failure is the sixth probe of the second eigenvalue's end
    # game (probes 18-29 of 46 for the toy table, 29-39 of 39 for P-II value)
    first, last = _second_end_game(monkeypatch, build)
    fail_at = first + 5
    assert fail_at <= last
    counted_probes(monkeypatch, fail_at)
    with pytest.raises(PartialTableError) as info:
        build()
    exc = info.value
    assert isinstance(exc.__cause__, CrossingError)
    assert len(exc.records) >= 1
    assert exc.failed_index == len(exc.records) + 1
    for rec in exc.records:
        assert abs(rec.value - ref[rec.index]) <= 1.5e-4


def test_toy_table_against_grid_oracle(toy_table):
    # frozen values were fixed by an independent fine-grid maxima scan at
    # step 1e-4 before trusting bisection (see the oracle re-run below)
    for n, ref in TOY_REF.items():
        assert abs(toy_table[n - 1].value - ref) <= 1.5e-4
    vals = [r.value for r in toy_table]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_toy_oracle_rerun_around_first_jump(toy_table):
    # live brute-force oracle on a small window around a_1
    cfg = IntegrationConfig(rel_tol=1e-9)
    a1 = toy_table[0].value
    grid = np.arange(a1 - 0.002, a1 + 0.002, 1e-4)
    counts = [toy_count(float(a), cfg) for a in grid]
    jumps = [i for i in range(len(counts) - 1) if counts[i + 1] != counts[i]]
    assert len(jumps) == 1
    i = jumps[0]
    assert counts[i + 1] - counts[i] == 1
    assert grid[i] <= a1 <= grid[i + 1] + 1e-4


def test_toy_jump_matches_table_at_n5(toy_table):
    # cross-module consistency: the count jump sits where the solver put a_5
    cfg = IntegrationConfig(rel_tol=1e-9)
    a5 = toy_table[4].value
    below = toy_count(a5 - 2e-6, cfg)
    above = toy_count(a5 + 2e-6, cfg)
    assert above - below == 1


def test_toy_records_against_tight_reference(toy_table):
    # The honest error bar of a toy record: a maxima-count bisection at
    # rel_tol 1e-12 on a +-2e-6 window locates a_n far inside the record's
    # bracket width. At a_32 a count bisection at the table's rel_tol of
    # 1e-9 misses by twice that width.
    cfg = IntegrationConfig(rel_tol=1e-12)
    for n in (1, 3, 32):
        rec = toy_table[n - 1]
        lo, hi = rec.value - 2e-6, rec.value + 2e-6
        below = toy_count(lo, cfg)
        assert toy_count(hi, cfg) == below + 1
        while hi - lo > 1e-3 * rec.bracket_width:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if toy_count(mid, cfg) == below else (lo, mid)
        assert abs(rec.value - 0.5 * (lo + hi)) <= rec.bracket_width


def test_toy_growth_constant(toy_table):
    for n in range(40, 51):
        ratio = toy_table[n - 1].value / math.sqrt(n) / 2.0 ** (5.0 / 6.0)
        assert abs(ratio - 1.0) < 0.02
