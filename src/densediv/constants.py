"""Closed-form constants for dense-divisor counts.

The central constant is ``C = 1/(1 - e^{-gamma})``: it multiplies ``ln ln x``
in the expected number of distinct prime factors of a member, and scales the
leading coefficient of the member-count asymptotics.  The module also carries
the exponent constants quoted for shifted-prime / twin corollaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


#: Euler--Mascheroni constant, stored as a literal (not computed).
EULER_GAMMA = 0.5772156649015329

#: C = 1/(1 - e^{-gamma}) = 2.280291..., the normal-order multiplier for
#: the distinct-prime-factor count on dense-divisor sets.
DENSITY_SCALE = 1.0 / (1.0 - math.exp(-EULER_GAMMA))


@dataclass(frozen=True)
class ConstantsBundle:
    """All quotable constants in one immutable record.

    Attributes
    ----------
    gamma : float
        Euler--Mascheroni constant.
    C : float
        ``1/(1 - e^{-gamma})``.
    C_log2 : float
        ``C * ln 2`` -- exponent of ``ln n`` in the normal order of the
        divisor count on practical numbers.
    exp_shifted_prime : float
        ``(C+1)ln(C+1) - C ln C + 1`` -- exponent for shifted-prime counts.
    exp_twin : float
        ``2 + 4 C ln 2`` -- exponent for twin-style counts.
    exp_shifted_prime_e : float
        Same shape with ``e`` in place of ``C``: ``(e+1)ln(e+1) - e + 1``.
    exp_twin_e : float
        ``2 + 4 e ln 2``.
    e_log2 : float
        ``e * ln 2`` -- upper-bound exponent for the mean divisor count.
    """

    gamma: float
    C: float
    C_log2: float
    exp_shifted_prime: float
    exp_twin: float
    exp_shifted_prime_e: float
    exp_twin_e: float
    e_log2: float


def constants_bundle() -> ConstantsBundle:
    """Build the bundle from ``gamma`` alone; everything else is derived."""
    c = DENSITY_SCALE
    ln2 = math.log(2.0)
    return ConstantsBundle(
        gamma=EULER_GAMMA,
        C=c,
        C_log2=c * ln2,
        exp_shifted_prime=(c + 1.0) * math.log(c + 1.0) - c * math.log(c) + 1.0,
        exp_twin=2.0 + 4.0 * c * ln2,
        exp_shifted_prime_e=(math.e + 1.0) * math.log(math.e + 1.0) - math.e + 1.0,
        exp_twin_e=2.0 + 4.0 * math.e * ln2,
        e_log2=math.e * ln2,
    )


def expected_distinct_factors(x: float, t: float) -> float:
    """Predicted mean number of distinct prime factors over members <= x.

    Returns ``C ln ln x - (C - 1) ln ln t``.  Both double logarithms are
    evaluated exactly as written; ``ln ln t`` is negative for ``t < e`` and
    that is intentional (the prediction is larger for smaller ratio bounds).

    Parameters
    ----------
    x : float
        Upper end of the member range; must be >= 2.
    t : float
        Divisor-ratio bound; must be >= 2.

    Raises
    ------
    DomainError
        If ``x < 2`` or ``t < 2``.
    """
    if x < 2.0:
        raise DomainError(f"x must be >= 2, got {x}")
    if t < 2.0:
        raise DomainError(f"t must be >= 2, got {t}")
    c = DENSITY_SCALE
    return c * math.log(math.log(x)) - (c - 1.0) * math.log(math.log(t))
