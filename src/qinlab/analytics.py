"""Closed-form attack and payout analysis for the contribution mechanism.

Central object: the amplification ratio

    f(alpha, lam) = sum_{k=0..lam} x(i+k, n+lam) / x(i, n)
                  = (1 - u^(lam+1)) / ((1+alpha)^lam (1 - u)),   u = alpha (1+alpha)

-- the combined payout of an agent that splits into ``lam`` extra identities,
relative to staying honest. It is independent of the position i and the path
length n, which is itself an assertable invariant. Derived quantities:

* ``lambda_prime``  -- stationary point of f in lam; the most profitable
  number of fake identities is one of its two integer neighbours,
  floored to 1.
* ``lambda_star``   -- smallest integer lam with f <= 1; splits of that size
  or larger no longer pay, merges of more than that size start to pay (a
  merge of lam+1 identities is a split into lam read backwards: ratio 1/f).
* ``n_prime``       -- stationary point of the total payout in the path
  length n. Algebraically lambda_prime = n_prime - 1: the total for length n
  is f(n-1)/(1+alpha) times the budget.

The nearest-integer shortcut is a good but imperfect proxy for the true
integer argmax: near half-integer stationary points it lands one off (for f:
alpha near 0.76 and 0.91; for the total: alpha <= 0.16 and the same two
spots). ``rounding_mismatches`` reports every grid point where the shortcut
and a brute-force scan disagree. All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import mechanisms
from .mechanisms import RewardDomainError, check_alpha, is_singular

DEFAULT_SEARCH_CAP = 10_000
_SYBIL_ARGMAX_CAP = 1000
_LENGTH_ARGMAX_CAP = 200

# Grid used by documentation, sweeps, and the optimality checks.
ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
ALPHA_GRID_FINE = tuple(round(0.01 * k, 2) for k in range(1, 100))


class SearchExhaustedError(RuntimeError):
    """No qualifying integer found below the search cap."""


def sybil_factor(alpha: float, lam: int) -> float:
    """f(alpha, lam), the post-split to pre-split payout ratio.

    Closed form away from the golden point; there the geometric sum
    degenerates and the term-wise value (lam+1) * alpha^lam is returned.
    """
    check_alpha(alpha)
    if lam < 1:
        raise RewardDomainError(f"need at least one fake identity, got {lam}")
    if is_singular(alpha):
        return sybil_factor_termwise(alpha, lam)
    u = alpha * (1.0 + alpha)
    return (1.0 - u ** (lam + 1)) / ((1.0 + alpha) ** lam * (1.0 - u))


def sybil_factor_termwise(alpha: float, lam: int) -> float:
    """Independent summation oracle: sum_k alpha^(lam-k) (1+alpha)^-k."""
    check_alpha(alpha)
    if lam < 1:
        raise RewardDomainError(f"need at least one fake identity, got {lam}")
    return math.fsum(alpha ** (lam - k) / (1.0 + alpha) ** k
                     for k in range(lam + 1))


def lambda_prime(alpha: float) -> float:
    """Stationary point of f(alpha, .) in the split count.

    Solves u^(lam+1) = log(1+alpha)/(log(1+alpha) - log u), i.e.

        lambda' = log(-log(1+alpha)/log(alpha)) / log(alpha (1+alpha)) - 1,

    one less than the total-payout stationary point. Undefined at the golden
    point (log u vanishes).
    """
    return n_prime(alpha) - 1.0


def n_prime(alpha: float) -> float:
    """Stationary point of the total payout in the path length:

        n' = log(-log(1+alpha)/log(alpha)) / (log(alpha) + log(1+alpha)).

    The total is unimodal in n, so its integer argmax is floor(n') or
    ceil(n'), floored to 1: whichever pays more. The peak is skewed, so that
    is not always the nearest integer (see ``rounding_mismatches``).
    """
    check_alpha(alpha)
    if is_singular(alpha):
        raise RewardDomainError(
            "total payout has no closed-form stationary point at the golden "
            "split; use optimal_path_length, which scans")
    return (math.log(-math.log(1.0 + alpha) / math.log(alpha))
            / (math.log(alpha) + math.log(1.0 + alpha)))


def nearest_positive_int(x: float) -> int:
    """Nearest integer, halves away from zero, floored to 1."""
    return max(1, math.floor(x + 0.5))


def lambda_star(alpha: float, search_cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Smallest split count whose amplification drops to or below 1.

    Always at least 2: a single extra identity pays under every alpha.
    """
    check_alpha(alpha)
    for lam in range(1, search_cap + 1):
        if sybil_factor(alpha, lam) <= 1.0:
            return lam
    raise SearchExhaustedError(
        f"f(alpha={alpha}, lam) > 1 up to lam={search_cap}; "
        f"f at cap = {sybil_factor(alpha, search_cap)}")


def optimal_sybil_count(alpha: float) -> int:
    """Brute-force integer argmax of f(alpha, .); the scan is the oracle the
    rounded stationary point is judged against."""
    check_alpha(alpha)
    return max(range(1, _SYBIL_ARGMAX_CAP + 1),
               key=lambda lam: sybil_factor(alpha, lam))


def optimal_path_length(alpha: float) -> int:
    """Brute-force integer argmax of the total payout over path lengths.

    Works at the golden point too, where the total is n * alpha^n * budget.
    """
    check_alpha(alpha)
    spec = mechanisms.gcrm(alpha)
    return max(range(1, _LENGTH_ARGMAX_CAP + 1),
               key=lambda n: mechanisms.rewards_for_length(n, spec).total)


@dataclass(frozen=True)
class SybilProfile:
    """Amplification summary for one alpha: the f table up to the break-even
    split count, the stationary point, and the peak ratio, the maximum of f
    over the table (always < 2)."""

    alpha: float
    f_values: dict[int, float]
    lambda_prime: float
    lambda_star: int
    peak_ratio: float


def sybil_profile(alpha: float, lambda_max: int = 0) -> SybilProfile:
    """f table covering at least 1..lambda_star (or lambda_max if larger).

    The table holds the integer argmax of f, since f(lambda_star) <= 1 < f(1),
    so the peak ratio is the table's maximum.
    """
    star = lambda_star(alpha)
    top = max(star, lambda_max)
    f_values = {lam: sybil_factor(alpha, lam) for lam in range(1, top + 1)}
    lp = lambda_prime(alpha) if not is_singular(alpha) else float("nan")
    return SybilProfile(alpha, f_values, lp, star, max(f_values.values()))


def rounding_mismatches(alphas) -> dict[str, list[dict]]:
    """Grid points where nearest-integer rounding misses the true argmax.

    Returns {"sybil": [...], "path_length": [...]}; each entry carries alpha,
    the rounded stationary point, and the scanned argmax. Golden-point alphas
    are skipped (no stationary-point formula there).
    """
    out: dict[str, list[dict]] = {"sybil": [], "path_length": []}
    for alpha in alphas:
        if is_singular(alpha):
            continue
        rounded = nearest_positive_int(lambda_prime(alpha))
        argmax = optimal_sybil_count(alpha)
        if rounded != argmax:
            out["sybil"].append(
                {"alpha": alpha, "rounded": rounded, "argmax": argmax})
        rounded_n = nearest_positive_int(n_prime(alpha))
        argmax_n = optimal_path_length(alpha)
        if rounded_n != argmax_n:
            out["path_length"].append(
                {"alpha": alpha, "rounded": rounded_n, "argmax": argmax_n})
    return out


ANALYTICS_CSV_HEADER = ("alpha", "lambda", "f", "lambda_prime", "lambda_star",
                        "n_prime")


def analytic_sweep_rows(alphas, lambda_max: int = 0) -> list[tuple]:
    """CSV rows (alpha, lambda, f, lambda_prime, lambda_star, n_prime);
    the f column runs lam = 1..max(lambda_star, lambda_max) per alpha."""
    rows = []
    for alpha in sorted(alphas):
        profile = sybil_profile(alpha, lambda_max)
        np_value = (n_prime(alpha) if not is_singular(alpha)
                    else float("nan"))
        for lam in sorted(profile.f_values):
            rows.append((alpha, lam, profile.f_values[lam],
                         profile.lambda_prime, profile.lambda_star, np_value))
    return rows
