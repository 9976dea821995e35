import ast
import math
from pathlib import Path

import numpy as np
import pytest

from painleve import (
    BisectionError,
    ClassTag,
    IntegrationConfig,
    ModeKind,
    PAINLEVE_I,
    PAINLEVE_II,
    PartialTableError,
    PurityError,
    SearchMode,
    TOY_MODEL,
    bisect,
    eigen_table,
    scan_brackets,
    separatrix_check,
    toy_eigen_table,
)
import painleve.eigensolver as eigensolver
from painleve.eigensolver import _discriminant, _fine_cfg, _keys_differ

from conftest import (P1_SLOPE_REF, P1_VALUE_REF, P2_SLOPE_REF, P2_VALUE_REF, TOY_REF, counted_probes,
                      toy_count)


def test_search_mode_coercion():
    m = SearchMode.coerce("slope")
    assert m.kind is ModeKind.SLOPE and m.fixed_value == 0.0
    assert SearchMode.coerce(m) is m


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
    with pytest.raises(ValueError):
        scan_brackets(PAINLEVE_I, ModeKind.SLOPE, (5.0, 0.5), 0.1)


def test_bisect_first_critical_slope():
    rec = bisect(PAINLEVE_I, ModeKind.SLOPE, (1.8, 1.9), tol=1e-9)
    assert abs(rec.value - P1_SLOPE_REF[1]) < 3e-9
    assert rec.bracket_width <= 1e-9
    assert rec.pole_count == 0
    # bracket width halves every step: final width = initial / 2^m
    m = math.log2(0.1 / rec.bracket_width)
    assert abs(m - round(m)) < 1e-6


END_GAME_CASES = pytest.mark.parametrize(
    "eq,mode,bracket,ref",
    [
        (PAINLEVE_I, ModeKind.SLOPE, (1.8, 1.9), P1_SLOPE_REF[1]),
        (PAINLEVE_I, ModeKind.VALUE, (-0.8, -0.7), P1_VALUE_REF[1]),
        (PAINLEVE_II, ModeKind.SLOPE, (0.55, 0.65), P2_SLOPE_REF[1]),
        (PAINLEVE_II, ModeKind.VALUE, (1.2, 1.25), P2_VALUE_REF[1]),
    ],
    ids=["p1-slope", "p1-value", "p2-slope", "p2-value"],
)


@END_GAME_CASES
def test_end_game_record_flips_at_fine_tolerance(eq, mode, bracket, ref):
    # the matched end game returns a point estimate; the binary discriminant
    # at the fine tolerance must still flip across its reported bracket
    rec = bisect(eq, mode, bracket, tol=1e-9)
    assert abs(rec.value - ref) < 3e-9
    assert rec.bracket_width <= 1e-9
    n_poles = rec.pole_count + 2 if mode is ModeKind.VALUE and eq is PAINLEVE_II else None
    disc = _discriminant(eq, SearchMode(mode), _fine_cfg(eq, IntegrationConfig(), 1e-9), n_poles)
    half = 0.5 * rec.bracket_width
    assert _keys_differ(disc(rec.value - half), disc(rec.value + half))


def _is_coarse(cfg):
    return cfg.rel_tol == eigensolver._COARSE["rel_tol"]


@END_GAME_CASES
def test_end_game_probe_count(monkeypatch, eq, mode, bracket, ref):
    # Only the two bracket ends are probed at the scan tolerance. The matched
    # passes stop their probes at the matching time, so only the two
    # certificate probes run to the full horizon, and all of them together
    # integrate less than half of the time span that bisecting at the fine
    # tolerance (15 probes to t = -28 for the first of these cases) would.
    calls = counted_probes(monkeypatch)
    rec = bisect(eq, mode, bracket, tol=1e-9)
    assert abs(rec.value - ref) < 3e-9
    coarse = [args for args in calls if _is_coarse(args[3])]
    spans = [abs(args[3].resolved_horizon(args[0], args[2])) for args in calls if not _is_coarse(args[3])]
    full = [t for t in spans if t >= 28.0]
    assert len(coarse) <= 2
    assert len(full) <= 2
    assert sum(spans) < 0.5 * 15 * 28.0


def test_end_game_falls_back_to_bisection(monkeypatch):
    # a matched root off by 1e-7 fails the certificate; fine bisection then
    # lands where the matched end game does
    bracket = (1.8, 1.9)
    unforced = bisect(PAINLEVE_I, ModeKind.SLOPE, bracket, tol=1e-9)
    real_illinois, real_fallback = eigensolver._illinois, eigensolver._fine_bisection
    fallbacks = []

    def off_illinois(*args, **kwargs):
        root = real_illinois(*args, **kwargs)
        return None if root is None else root + 1e-7

    def fallback(*args):
        fallbacks.append(args)
        return real_fallback(*args)

    monkeypatch.setattr(eigensolver, "_illinois", off_illinois)
    monkeypatch.setattr(eigensolver, "_fine_bisection", fallback)
    forced = bisect(PAINLEVE_I, ModeKind.SLOPE, bracket, tol=1e-9)
    assert len(fallbacks) == 1
    assert abs(forced.value - unforced.value) < 1e-9
    assert forced.bracket_width <= 1e-9
    assert forced.pole_count == unforced.pole_count == 0


_NO_TOY_MODE = "p1 has no toy mode; its modes are: slope, value"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: scan_brackets(PAINLEVE_I, "toy", (0.5, 1.0), 0.1), _NO_TOY_MODE),
        (lambda: bisect(PAINLEVE_I, ModeKind.TOY, (1.8, 1.9)), _NO_TOY_MODE),
        (lambda: eigen_table(PAINLEVE_I, "toy", 2), _NO_TOY_MODE),
        (lambda: scan_brackets(TOY_MODEL, "slope", (0.5, 1.0), 0.1), "toy has no slope mode; its modes are: toy"),
    ],
    ids=["scan_brackets", "bisect", "eigen_table", "toy-scan_brackets"],
)
def test_mode_missing_from_equation(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _benchmark_copy(name):
    """The value perfbench/workloads.py assigns to ``name``, read without
    importing the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    copies = [node.value for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    assert len(copies) == 1
    return ast.literal_eval(copies[0])


def test_benchmark_copies_reference_values():
    # perfbench checks its critical values against its own copies of the
    # references, so that an edit to the tests cannot loosen them; hold those
    # copies to the tests' ones
    tests = {("p1", "slope"): P1_SLOPE_REF, ("p1", "value"): P1_VALUE_REF,
             ("p2", "slope"): P2_SLOPE_REF, ("p2", "value"): P2_VALUE_REF}
    refs = _benchmark_copy("REFS")
    assert set(refs) == set(tests)
    for key, values in refs.items():
        for n, value in values.items():
            assert value == tests[key][n], (key, n)
    assert _benchmark_copy("TOY_REF") == TOY_REF


def test_benchmark_copies_scan_tolerance():
    # perfbench splits traced probes into coarse and fine by comparing
    # rel_tol with its own copy of the scan tolerance
    assert _benchmark_copy("COARSE_REL_TOL") == eigensolver._COARSE["rel_tol"]


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


def test_converged_records_validate_as_separatrices(p1_slope_table, p2_slope_table):
    for rec in p1_slope_table[:4]:
        cls = separatrix_check(PAINLEVE_I, rec.mode, rec.value, uncertainty=rec.bracket_width)
        assert cls.tag is ClassTag.SEPARATRIX_PLUS
        assert cls.pole_count == rec.index // 2
    # the second equation's separatrices alternate between the two branches
    tags = []
    for rec in p2_slope_table[:4]:
        cls = separatrix_check(PAINLEVE_II, rec.mode, rec.value, uncertainty=rec.bracket_width)
        assert cls.tag in (ClassTag.SEPARATRIX_PLUS, ClassTag.SEPARATRIX_MINUS)
        assert cls.pole_count == rec.index // 2
        tags.append(cls.tag)
    assert tags[0] is not tags[1] and tags[1] is not tags[2] and tags[2] is not tags[3]


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


def test_toy_probe_count(monkeypatch):
    # Beyond the scan, each eigenvalue runs at most four probes to the full
    # horizon: the two bracket ends and the two certificate probes. Every
    # other end-game probe stops at its matching time, well short of it.
    calls = counted_probes(monkeypatch)
    end_games = []
    real_bisect = eigensolver.bisect

    def bisect(*args, **kwargs):
        start = len(calls)
        rec = real_bisect(*args, **kwargs)
        end_games.append(calls[start:])
        return rec

    monkeypatch.setattr(eigensolver, "bisect", bisect)
    table = toy_eigen_table(3)
    assert len(end_games) == 3
    for probes in end_games:
        horizons = [args[3].t_horizon for args in probes]
        assert horizons.count(None) <= 4
        assert all(t <= 0.1 * TOY_MODEL.positive_horizon for t in horizons if t is not None)
    for rec in table:
        assert abs(rec.value - TOY_REF[rec.index]) <= 1.5e-4


@pytest.mark.parametrize(
    "build,fail_at,ref",
    [
        # the second eigenvalue's end game runs probes 27-45 of 67
        (lambda: toy_eigen_table(3), 40, TOY_REF),
        # the second eigenvalue's bisection runs probes 33-47 of 47
        (lambda: eigen_table(PAINLEVE_II, ModeKind.VALUE, 2, tol=1e-6), 40, P2_VALUE_REF),
    ],
    ids=["toy", "p2-value"],
)
def test_table_keeps_records_on_integration_error(monkeypatch, build, fail_at, ref):
    counted_probes(monkeypatch, fail_at)
    with pytest.raises(PartialTableError) as info:
        build()
    exc = info.value
    assert isinstance(exc.__cause__, PurityError)
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
    cfg = IntegrationConfig(rel_tol=1e-9, abs_tol=1e-11)
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
    cfg = IntegrationConfig(rel_tol=1e-9, abs_tol=1e-11)
    a5 = toy_table[4].value
    below = toy_count(a5 - 2e-6, cfg)
    above = toy_count(a5 + 2e-6, cfg)
    assert above - below == 1


def test_toy_records_against_tight_reference(toy_table):
    # The honest error bar of a toy record: a maxima-count bisection at
    # rel_tol 1e-12 on a +-2e-6 window locates a_n far inside the record's
    # bracket width. At a_32 a count bisection at the table's rel_tol of
    # 1e-9 misses by twice that width.
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14)
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
