"""Large-index asymptotics: Richardson extrapolation of eigenvalue tables and
the closed-form WKB constants they must reproduce.

The critical initial conditions grow like C n^p with p = 3/5, 2/5 (first
equation, slope/value mode) and 2/3, 1/3 (second equation). The constants C
have closed forms in terms of the gamma function, obtained by reducing the
shooting problems to linear spectral problems for the Hamiltonians
p^2/2 + 2 i x^3 and p^2/2 - x^4/2 (and, for the positive-direction value
mode, the Hermitian quartic oscillator p^2/2 + x^4/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "RichardsonResult",
    "WkbConstants",
    "WkbSpec",
    "closed_form_constants",
    "extract_constant",
    "hermitian_quartic_energy",
    "richardson",
    "wkb_energy",
]


@dataclass(frozen=True)
class WkbSpec:
    """Coupling g and exponent eps of the family p^2/2 + g x^2 (i x)^eps."""

    g: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.g <= 0.0:
            raise ValueError("coupling g must be positive")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")


def wkb_energy(spec: WkbSpec, n: int) -> float:
    """Semiclassical n-th energy level of p^2/2 + g x^2 (i x)^eps.

    E_n = (1/2) (2g)^{2/(4+eps)} * [ G(3/2 + 1/(eps+2)) sqrt(pi) n /
          ( sin(pi/(eps+2)) G(1 + 1/(eps+2)) ) ]^{(2 eps + 4)/(eps + 4)}.
    """
    if n < 1:
        raise ValueError("level index n must be >= 1")
    e = spec.epsilon
    num = math.gamma(1.5 + 1.0 / (e + 2.0)) * math.sqrt(math.pi) * n
    den = math.sin(math.pi / (e + 2.0)) * math.gamma(1.0 + 1.0 / (e + 2.0))
    return 0.5 * (2.0 * spec.g) ** (2.0 / (4.0 + e)) * (num / den) ** ((2.0 * e + 4.0) / (e + 4.0))


def hermitian_quartic_energy(n: int) -> float:
    """Semiclassical n-th level of the Hermitian quartic oscillator
    p^2/2 + x^4/2: E_n = [3 n sqrt(pi) G(3/4)/G(1/4)]^{4/3}.

    This case sits outside the PT family covered by :func:`wkb_energy`.
    """
    if n < 1:
        raise ValueError("level index n must be >= 1")
    return (3.0 * n * math.sqrt(math.pi) * math.gamma(0.75) / math.gamma(0.25)) ** (4.0 / 3.0)


@dataclass(frozen=True)
class WkbConstants:
    """Closed-form leading coefficients of the critical-value growth laws.

    ``p1_slope``/``p1_value`` multiply n^{3/5} and n^{2/5} for the first
    equation; ``p2_slope``/``p2_value`` multiply n^{2/3} and n^{1/3} for the
    second.
    """

    p1_slope: float
    p1_value: float
    p2_slope: float
    p2_value: float

    def as_dict(self) -> dict[str, float]:
        return {
            "p1_slope": self.p1_slope,
            "p1_value": self.p1_value,
            "p2_slope": self.p2_slope,
            "p2_value": self.p2_value,
        }


def closed_form_constants() -> WkbConstants:
    """The four constants, read off the first level E_1 of each spectrum.

    The n-th critical datum carries the n-th level's energy, which grows
    with n as the datum's growth law does, so each constant is the datum of
    E_1. H(0) = E_1 gives p1_slope = sqrt(2 E_1) and p1_value = -(E_1/2)^{1/3}
    with E_1 of p^2/2 + 2 i x^3, and p2_slope = sqrt(2 E_1) with E_1 of
    p^2/2 - x^4/2; p2_value = E_1^{1/4} with E_1 of p^2/2 + x^4/2.
    """
    e_cubic = wkb_energy(WkbSpec(2.0, 1.0), 1)
    return WkbConstants(
        p1_slope=math.sqrt(2.0 * e_cubic),
        p1_value=-((0.5 * e_cubic) ** (1.0 / 3.0)),
        p2_slope=math.sqrt(2.0 * wkb_energy(WkbSpec(0.5, 2.0), 1)),
        p2_value=hermitian_quartic_energy(1) ** 0.25,
    )


@dataclass(frozen=True)
class RichardsonResult:
    estimate: float
    order: int
    stability: float


def _window_value(seq: Sequence[float], n_end: int, k: int) -> float:
    # order-k extrapolation on the window ending at 1-based index n_end:
    # sum_j s_{n_end-k+j} (n_end-k+j)^k (-1)^{j+k} / (j! (k-j)!)
    total = 0.0
    for j in range(k + 1):
        n = n_end - k + j
        w = n ** k * (-1) ** (j + k) / (math.factorial(j) * math.factorial(k - j))
        total += seq[n - 1] * w
    return total


def richardson(seq: Sequence[float], order: int) -> RichardsonResult:
    """Order-k Richardson extrapolation of s_1..s_N toward N -> infinity.

    Assumes corrections are a polynomial in 1/n; annihilates every term
    through degree k exactly. The estimate uses the last admissible window;
    the stability field is the spread of the estimate over the last three
    admissible windows (0 when fewer exist).
    """
    n = len(seq)
    k = int(order)
    if k < 0:
        raise ValueError("order must be non-negative")
    if n < k + 1:
        raise ValueError(f"order {k} needs at least {k + 1} terms, got {n}")
    values = [_window_value(seq, end, k) for end in range(n, max(k, n - 3), -1)]
    spread = max(values) - min(values) if len(values) > 1 else 0.0
    return RichardsonResult(estimate=values[0], order=k, stability=spread)


def extract_constant(
    records,
    exponent: float,
    order: int,
    split_even_odd: bool = False,
) -> RichardsonResult | tuple[RichardsonResult, RichardsonResult]:
    """Leading growth coefficient of an eigenvalue table.

    Extrapolates s_n = value_n / n^p. With ``split_even_odd``
    (slope mode of the second equation, where the separatrices alternate
    between the two branch curves) the even- and odd-indexed subsequences
    are extrapolated separately against their own counter and both results
    returned as (even, odd).
    """
    values = [getattr(r, "value", r) for r in records]
    if split_even_odd:
        even = [values[2 * m - 1] for m in range(1, len(values) // 2 + 1)]
        odd = [values[2 * m] for m in range(1, (len(values) - 1) // 2 + 1)]
        return (
            richardson([v / (m + 1.0) ** exponent for m, v in enumerate(even)], order),
            richardson([v / (m + 1.0) ** exponent for m, v in enumerate(odd)], order),
        )
    seq = [v / (m + 1.0) ** exponent for m, v in enumerate(values)]
    return richardson(seq, order)
