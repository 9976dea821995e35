import math

import numpy as np
import pytest

from painleve import (
    RichardsonResult,
    WkbSpec,
    closed_form_constants,
    extract_constant,
    hermitian_quartic_energy,
    richardson,
    wkb_energy,
)
from conftest import CONST_REF


def spouge_gamma(x: float, a: int = 20) -> float:
    """Independent gamma oracle (Spouge's series), good to ~1e-13 here."""
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * spouge_gamma(1.0 - x, a))
    z = x - 1.0
    acc = math.sqrt(2.0 * math.pi)
    for k in range(1, a):
        c = ((-1) ** (k - 1) / math.factorial(k - 1)) * (a - k) ** (k - 0.5) * math.exp(a - k)
        acc += c / (z + k)
    return (z + a) ** (z + 0.5) * math.exp(-(z + a)) * acc


def test_gamma_against_independent_oracle():
    # the closed forms, rebuilt from Spouge's gamma series instead of the
    # stdlib gamma they use, agree far beyond the quoted digits
    r = math.sqrt(3.0 * math.pi) * spouge_gamma(11 / 6) / spouge_gamma(1 / 3)
    q = 3.0 * spouge_gamma(0.75) / spouge_gamma(0.25)
    c = closed_form_constants()
    assert c.p1_slope == pytest.approx(2.0 * r**0.6, rel=1e-12)
    assert c.p1_value == pytest.approx(-(r**0.4), rel=1e-12)
    assert c.p2_slope == pytest.approx((q * math.sqrt(2.0 * math.pi)) ** (2 / 3), rel=1e-12)
    assert c.p2_value == pytest.approx((q * math.sqrt(math.pi)) ** (1 / 3), rel=1e-12)


def test_wkb_spec_validation():
    with pytest.raises(ValueError):
        WkbSpec(-1.0, 1.0)
    with pytest.raises(ValueError):
        WkbSpec(1.0, -0.5)
    with pytest.raises(ValueError):
        wkb_energy(WkbSpec(1.0, 1.0), 0)
    # a NaN passes every comparison check, so finiteness is asked first
    for g, eps in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            WkbSpec(g, eps)
    with pytest.raises(ValueError, match="finite"):
        wkb_energy(WkbSpec(1.0, 1.0), math.nan)
    with pytest.raises(ValueError, match="finite"):
        hermitian_quartic_energy(math.nan)


def test_wkb_energy_cubic_reduction():
    # g=2, eps=1 collapses to 2 [sqrt(3 pi) G(11/6) n / G(1/3)]^{6/5}
    spec = WkbSpec(2.0, 1.0)
    for n in range(1, 11):
        direct = 2.0 * (math.sqrt(3 * math.pi) * math.gamma(11 / 6) * n / math.gamma(1 / 3)) ** 1.2
        assert wkb_energy(spec, n) == pytest.approx(direct, rel=1e-13)


def test_wkb_energy_quartic_reduction():
    # g=1/2, eps=2 collapses to (1/2) [3 n sqrt(2 pi) G(3/4)/G(1/4)]^{4/3}
    spec = WkbSpec(0.5, 2.0)
    for n in range(1, 11):
        direct = 0.5 * (3 * n * math.sqrt(2 * math.pi) * math.gamma(0.75) / math.gamma(0.25)) ** (4 / 3)
        assert wkb_energy(spec, n) == pytest.approx(direct, rel=1e-13)


def test_wkb_energy_coupling_scaling():
    for eps in (0.0, 1.0, 2.0, 3.5):
        for n in (1, 4):
            ratio = wkb_energy(WkbSpec(2.0, eps), n) / wkb_energy(WkbSpec(1.0, eps), n)
            assert ratio == pytest.approx(2.0 ** (2.0 / (4.0 + eps)), rel=1e-13)


def test_hermitian_quartic():
    assert hermitian_quartic_energy(1) > 0.0
    for n in (1, 2, 5, 9):
        # pinned ratio against the PT quartic member: exactly 2^(1/3)
        ratio = hermitian_quartic_energy(n) / wkb_energy(WkbSpec(0.5, 2.0), n)
        assert ratio == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-13)
        assert math.log2(hermitian_quartic_energy(2 * n) / hermitian_quartic_energy(n)) == pytest.approx(
            4.0 / 3.0, rel=1e-12
        )


def test_closed_form_constants_digits():
    c = closed_form_constants()
    assert c.p1_slope == pytest.approx(CONST_REF["p1_slope"], abs=5e-9)
    assert c.p1_value == pytest.approx(CONST_REF["p1_value"], abs=5e-8)
    assert c.p2_slope == pytest.approx(CONST_REF["p2_slope"], abs=5e-8)
    # the quoted final digit carries +-1: the exact value is ...16593
    assert c.p2_value == pytest.approx(CONST_REF["p2_value"], abs=1e-8)
    assert c.p1_slope > 0 and c.p2_slope > 0 and c.p2_value > 0 > c.p1_value


def test_slope_constant_consistent_with_energy_levels():
    # sqrt(2 E_n) / n^(3/5) equals the slope-growth constant identically
    c = closed_form_constants()
    for n in (1, 2, 10, 50):
        v = math.sqrt(2 * wkb_energy(WkbSpec(2.0, 1.0), n)) / n**0.6
        assert v == pytest.approx(c.p1_slope, rel=1e-12)


def test_richardson_constant_sequence():
    for k in range(0, 5):
        res = richardson([7.0] * 9, k)
        assert res.estimate == pytest.approx(7.0, abs=1e-9)


def test_richardson_first_order_tail():
    res = richardson([1.0 + 1.0 / n for n in range(1, 9)], 1)
    assert res.estimate == pytest.approx(1.0, abs=1e-12)


def test_richardson_second_order_tail():
    res = richardson([2.0 + 3.0 / n + 5.0 / n**2 for n in range(1, 12)], 2)
    assert res.estimate == pytest.approx(2.0, abs=1e-10)


def test_richardson_annihilates_polynomial_tails():
    rng = np.random.default_rng(42)
    for k in range(1, 6):
        for _ in range(5):
            coeffs = rng.uniform(-4, 4, size=k + 1)
            limit = coeffs[0]
            seq = [limit + sum(c / n**j for j, c in enumerate(coeffs[1:], start=1))
                   for n in range(1, k + 9)]
            res = richardson(seq, k)
            assert res.estimate == pytest.approx(limit, abs=5e-8)


def test_richardson_rejects_short_sequences():
    with pytest.raises(ValueError):
        richardson([1.0, 2.0], 2)
    with pytest.raises(ValueError, match="non-negative"):
        richardson([1.0, 2.0], -1)


def test_extract_constant_synthetic():
    # values C n^p with a 1/n correction: extraction recovers C
    p, C = 0.6, 2.09
    vals = [C * n**p * (1 + 0.3 / n + 0.05 / n**2) for n in range(1, 12)]
    res = extract_constant(vals, p, 4)
    assert isinstance(res, RichardsonResult)
    assert res.estimate == pytest.approx(C, abs=1e-9)


def test_extract_constant_stable_under_appending():
    # when the tail model holds, appending one more record moves the
    # estimate by about the reported stability spread at most (the 1/n^5
    # term below is what order 4 cannot annihilate)
    p, C = 0.6, 2.09
    vals = [C * n**p * (1 + 0.3 / n + 0.05 / n**2 + 0.2 / n**5) for n in range(1, 14)]
    short = extract_constant(vals[:12], p, 4)
    full = extract_constant(vals, p, 4)
    drift = abs(full.estimate - short.estimate)
    assert short.stability > 0.0
    assert drift <= 2.0 * short.stability


def test_extract_constant_split():
    # pair structure b_{2m} ~ b_{2m+1} ~ C m^p; the first entry is outside
    # the pair law and must be ignored by the split extractor
    p = 2.0 / 3.0
    vals = [0.4]
    for j in range(2, 22):
        m = j // 2 if j % 2 == 0 else (j - 1) // 2
        vals.append(1.86 * m**p * (1 + 0.1 / m))
    even, odd = extract_constant(vals, p, 3, split_even_odd=True)
    assert even.estimate == pytest.approx(1.86, abs=1e-9)
    assert odd.estimate == pytest.approx(1.86, abs=1e-9)
