"""Geometric reward schedules over allocation paths.

Two families. The tree-dependent geometric family (TDGM) pays position i on a
path of length n

    x(i, n) = alpha^(n-i) * beta(n, budget),      0 < alpha < 1,

with the solver payment ``beta`` free within 0 < beta <= (1-alpha)/(1-alpha^n)
* budget. Two named schedules sit at the ends of that range:

* ``sp``  -- beta(n) = budget / (1+alpha)^(n-1). Splitting into fake
  identities never pays (break-even for a single fake).
* ``cp``  -- beta(n) = (1-alpha)/(1-alpha^n) * budget, the upper bound.
  Merging consecutive identities never pays, and the budget is spent exactly.

The generalized contribution family (GCRM) fixes the solver payment to the
whole budget and discounts by contribution:

    x(i, n) = alpha^(n-i) / (1+alpha)^i * budget.

Its adjacent-position ratio is alpha*(1+alpha), which stays <= 1 exactly when
alpha <= (sqrt(5)-1)/2; at that golden point every position is paid alike and
the closed-form total has a removable singularity (handled by summation).

Everything here is a pure function of (position, length, spec); parameter
grids can be evaluated in parallel freely.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Mapping, Optional, Union

from .querytree import AllocationPath

TDGM = "TDGM"
GCRM = "GCRM"

BETA_SP = "sp"
BETA_CP = "cp"

GOLDEN_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0  # alpha*(1+alpha) = 1

# Relative tolerance for equality of reward sums: identities that hold
# algebraically (break-even schedules, telescoping totals) are trusted to
# this precision, and strict comparisons must clear it.
EQ_TOL = 1e-12

_SINGULAR_EPS = 1e-9


def is_singular(alpha: float) -> bool:
    """alpha is within _SINGULAR_EPS of the golden point, where the closed
    forms in u = alpha*(1+alpha) degenerate and summation takes over."""
    return abs(1.0 - alpha * (1.0 + alpha)) < _SINGULAR_EPS


BetaSchedule = Union[str, Mapping[int, float], None]


class RewardDomainError(ValueError):
    """Raised for positions, lengths, or parameters outside the domain."""


def _json_number(value, what: str) -> float:
    """A JSON parameter or payment: an integer or a float, never a bool or
    a string."""
    if type(value) not in (int, float):
        raise RewardDomainError(f"{what} must be a number, got {value!r}")
    return float(value)


def check_alpha(alpha: float) -> None:
    """Reject alpha outside the open interval (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise RewardDomainError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class MechanismSpec:
    """Family tag plus parameters; validated on construction.

    ``beta`` applies to TDGM only: ``"sp"``, ``"cp"``, or an explicit
    ``{n: value}`` table. Table entries outside (0, bound] are rejected, not
    clamped: a silently repaired schedule would hide the exact budget
    violations the auditor exists to surface. ``unchecked`` skips validation
    for deliberately broken specs used as audit fixtures.
    """

    family: str
    alpha: float
    budget: float = 1.0
    beta: BetaSchedule = None
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if isinstance(self.beta, dict):
            object.__setattr__(self, "beta",
                               {int(n): float(v)
                                for n, v in self.beta.items()})
        if check:
            self.validate()

    @classmethod
    def unchecked(cls, family, alpha, budget=1.0, beta=None) -> "MechanismSpec":
        return cls(family, alpha, budget, beta, check=False)

    def validate(self) -> None:
        if self.family not in (TDGM, GCRM):
            raise RewardDomainError(f"unknown family {self.family!r}")
        check_alpha(self.alpha)
        if not 0.0 < self.budget < math.inf:
            raise RewardDomainError(f"budget must be positive and finite, "
                                    f"got {self.budget}")
        if self.family == GCRM:
            if self.beta is not None:
                raise RewardDomainError("GCRM fixes the solver payment to the "
                                        "budget; no beta schedule applies")
            return
        if self.beta in (BETA_SP, BETA_CP):
            return
        if isinstance(self.beta, Mapping):
            for n, value in self.beta.items():
                if n < 1:
                    raise RewardDomainError(f"beta table length {n} < 1")
                bound = beta_cp(n, self.budget, self.alpha)
                if not 0.0 < value <= bound * (1.0 + 1e-12):
                    raise RewardDomainError(
                        f"beta({n}) = {value} outside (0, {bound}]")
            return
        raise RewardDomainError(f"TDGM needs a beta schedule, got {self.beta!r}")

    def beta_value(self, n: int) -> float:
        if self.beta == BETA_SP:
            return beta_sp(n, self.budget, self.alpha)
        if self.beta == BETA_CP:
            return beta_cp(n, self.budget, self.alpha)
        if isinstance(self.beta, Mapping):
            try:
                return self.beta[n]
            except KeyError:
                raise RewardDomainError(f"beta table has no entry for n={n}")
        raise RewardDomainError(f"no beta schedule on {self}")

    def to_json(self) -> dict:
        doc = {"family": self.family, "alpha": self.alpha,
               "budget": self.budget}
        if self.family == TDGM:
            if isinstance(self.beta, Mapping):
                doc["beta"] = {"table": {str(n): v
                                         for n, v in sorted(self.beta.items())}}
            else:
                doc["beta"] = self.beta
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "MechanismSpec":
        beta = doc.get("beta")
        if isinstance(beta, Mapping):
            beta = {int(n): _json_number(v, f"beta({n})")
                    for n, v in beta["table"].items()}
        return cls(doc["family"], _json_number(doc["alpha"], "alpha"),
                   _json_number(doc.get("budget", 1.0), "budget"), beta)


@dataclass(frozen=True)
class RewardVector:
    """Per-position rewards x(1..n) and their exactly-rounded total."""

    values: tuple[float, ...]

    @property
    def total(self) -> float:
        return math.fsum(self.values)

    @property
    def n(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# Solver-payment schedules
# ---------------------------------------------------------------------------

def beta_sp(n: int, budget: float, alpha: float) -> float:
    """budget / (1+alpha)^(n-1); break-even against one extra identity:
    beta(n) == (1+alpha) * beta(n+1) exactly."""
    if n < 1:
        raise RewardDomainError(f"path length must be >= 1, got {n}")
    return budget / (1.0 + alpha) ** (n - 1)


def beta_cp(n: int, budget: float, alpha: float) -> float:
    """(1-alpha)/(1-alpha^n) * budget, the budget-exhausting upper bound."""
    if n < 1:
        raise RewardDomainError(f"path length must be >= 1, got {n}")
    return (1.0 - alpha) / (1.0 - alpha ** n) * budget


# ---------------------------------------------------------------------------
# Per-position rewards
# ---------------------------------------------------------------------------

def _check_position(i: int, n: int) -> None:
    if n < 1:
        raise RewardDomainError(f"path length must be >= 1, got {n}")
    if not 1 <= i <= n:
        raise RewardDomainError(f"position {i} outside 1..{n}")


def tdgm_reward(i: int, n: int, spec: MechanismSpec) -> float:
    """alpha^(n-i) * beta(n) for the spec's schedule."""
    if spec.family != TDGM:
        raise RewardDomainError(f"expected a TDGM spec, got {spec.family}")
    _check_position(i, n)
    return spec.alpha ** (n - i) * spec.beta_value(n)


def gcrm_reward(i: int, n: int, spec: MechanismSpec) -> float:
    """alpha^(n-i) / (1+alpha)^i * budget."""
    if spec.family != GCRM:
        raise RewardDomainError(f"expected a GCRM spec, got {spec.family}")
    _check_position(i, n)
    return spec.alpha ** (n - i) / (1.0 + spec.alpha) ** i * spec.budget


def position_reward(i: int, n: int, spec: MechanismSpec) -> float:
    """Family dispatch for x(i, n)."""
    if spec.family == TDGM:
        return tdgm_reward(i, n, spec)
    return gcrm_reward(i, n, spec)


def rewards_for_length(n: int, spec: MechanismSpec) -> RewardVector:
    """x(1..n) for a path of length n."""
    _check_position(1, n)
    return RewardVector(tuple(position_reward(i, n, spec)
                              for i in range(1, n + 1)))


def reward_vector(path: AllocationPath, spec: MechanismSpec) -> RewardVector:
    """Rewards along an allocation path, one entry per non-root agent."""
    return rewards_for_length(path.n, spec)


def total_reward_closed_form(n: int, spec: MechanismSpec) -> float:
    """Closed-form total payout; agrees with term-wise summation.

    TDGM telescopes to (1-alpha^n)/(1-alpha) * beta(n). The GCRM form

        (1 - (alpha (1+alpha))^n) / ((1+alpha)^n (1 - alpha (1+alpha)))

    is undefined where alpha*(1+alpha) = 1 even though every per-position
    reward is finite there (each equals alpha^n * budget); near that point
    the summation fallback is used.
    """
    _check_position(1, n)
    a = spec.alpha
    if spec.family == TDGM:
        return (1.0 - a ** n) / (1.0 - a) * spec.beta_value(n)
    if is_singular(a):
        return rewards_for_length(n, spec).total
    u = a * (1.0 + a)
    return (1.0 - u ** n) / ((1.0 + a) ** n * (1.0 - u)) * spec.budget


def split_ratio(spec: MechanismSpec) -> float:
    """x(i, n) / x(i+1, n): alpha for TDGM, alpha*(1+alpha) for GCRM."""
    if spec.family == TDGM:
        return spec.alpha
    return spec.alpha * (1.0 + spec.alpha)


# ---------------------------------------------------------------------------
# Common-split parameterization
# ---------------------------------------------------------------------------

def map_rho(rho: float) -> dict[str, float]:
    """Native parameters making all three mechanisms rho-split.

    Returns ``alpha_dgm`` = rho/(1+rho) (the sp-schedule mechanism in its own
    parameterization), ``delta`` = rho (the cp schedule), and ``alpha_gcrm``
    = (sqrt(1+4 rho)-1)/2, the root of alpha*(1+alpha) = rho.
    """
    if not 0.0 < rho <= 1.0:
        raise RewardDomainError(f"rho must lie in (0, 1], got {rho}")
    return {
        "alpha_dgm": rho / (1.0 + rho),
        "delta": rho,
        "alpha_gcrm": (math.sqrt(1.0 + 4.0 * rho) - 1.0) / 2.0,
    }


def dgm(alpha_dgm: float, budget: float = 1.0) -> MechanismSpec:
    """sp-schedule TDGM from its native parameter.

    Natively x(i, n) = alpha_dgm^(n-i) (1-alpha_dgm)^(i-1) * budget, which is
    the TDGM with alpha = alpha_dgm/(1-alpha_dgm); alpha_dgm must stay below
    1/2 for that to remain a valid split factor.
    """
    if not 0.0 < alpha_dgm < 0.5:
        raise RewardDomainError(
            f"native alpha must lie in (0, 0.5), got {alpha_dgm}")
    return MechanismSpec(TDGM, alpha_dgm / (1.0 - alpha_dgm), budget, BETA_SP)


def delta_geom(delta: float, budget: float = 1.0) -> MechanismSpec:
    """cp-schedule TDGM; the native delta is the TDGM alpha itself."""
    return MechanismSpec(TDGM, delta, budget, BETA_CP)


def gcrm(alpha: float, budget: float = 1.0) -> MechanismSpec:
    return MechanismSpec(GCRM, alpha, budget)


def specs_for_rho(rho: float, budget: float = 1.0) -> dict[str, MechanismSpec]:
    """The three rho-split mechanisms, keyed dgm/geom/gcrm."""
    params = map_rho(rho)
    return {
        "dgm": dgm(params["alpha_dgm"], budget),
        "geom": delta_geom(params["delta"], budget),
        "gcrm": gcrm(params["alpha_gcrm"], budget),
    }
