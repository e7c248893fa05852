"""Absorption nonlinearities and their truncations.

Every nonlinearity here is continuous, nondecreasing, and vanishes at 0.
Instances are immutable; truncation returns a new instance with value
caps (``min(g, n)``-style, the default scheme) or an argument cap
(``g(min(t, n))``, the alternative family used for scheme-independence
checks).  For strictly increasing g the two families coincide up to a
relabeling of the cap, which the tests assert explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import (
    KIND_EXP,
    KIND_EXP2,
    KIND_POWER,
    g_deriv,
    g_eval,
)

_NAMES = {KIND_POWER: "power", KIND_EXP: "exp", KIND_EXP2: "exp2sided"}


@dataclass(frozen=True)
class Nonlinearity:
    kind: int
    p: float = 0.0
    lo: float = -math.inf  # value clamp below
    hi: float = math.inf  # value clamp above
    arg_hi: float = math.inf  # argument clamp (second truncation family)

    def __post_init__(self):
        if self.kind not in _NAMES:
            raise ValueError(f"unknown nonlinearity kind {self.kind}")
        if self.kind == KIND_POWER and self.p < 1.0:
            raise ValueError("power exponent must be >= 1")

    # --- evaluation --------------------------------------------------------

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        g_eval(self.kind, self.p, self.lo, self.hi, self.arg_hi, t, out)
        return out if out.shape != (1,) else float(out[0])

    def deriv(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        g_deriv(self.kind, self.p, self.lo, self.hi, self.arg_hi, t, out)
        return out if out.shape != (1,) else float(out[0])

    # --- structure flags ---------------------------------------------------

    @property
    def name(self) -> str:
        return _NAMES[self.kind]

    @property
    def vanishes_on_negatives(self) -> bool:
        return self.kind in (KIND_POWER, KIND_EXP)

    @property
    def convex(self) -> bool:
        # convex on R for the one-sided members; the odd two-sided
        # exponential is not (concave on the negative axis)
        return self.kind in (KIND_POWER, KIND_EXP)

    @property
    def delta2(self) -> bool:
        """Doubling condition g(2t) <= C g(t); true for powers only."""
        return self.kind == KIND_POWER

    @property
    def truncated(self) -> bool:
        return math.isfinite(self.hi) or math.isfinite(self.arg_hi)

    @property
    def truncation_level(self) -> float:
        return self.hi if math.isfinite(self.hi) else self.arg_hi

    def subcritical_for(self, dim: int) -> bool:
        """Whether every measure is good on a domain of this dimension:
        powers below N/(N-2) qualify; exponentials only in dimension 1."""
        if self.kind == KIND_POWER:
            return dim <= 2 or self.p < dim / (dim - 2.0)
        return dim == 1

    # --- truncations -------------------------------------------------------

    def truncate(self, n: float, family: str = "value") -> "Nonlinearity":
        if n <= 0:
            raise ValueError("truncation level must be positive")
        if family == "value":
            if self.vanishes_on_negatives:
                return replace(self, hi=min(self.hi, float(n)), lo=0.0)
            return replace(self, hi=min(self.hi, float(n)), lo=max(self.lo, -float(n)))
        if family == "argument":
            return replace(self, arg_hi=min(self.arg_hi, float(n)))
        raise ValueError(f"unknown truncation family {family!r}")

    # --- signed-problem views ---------------------------------------------

    def positive_part(self) -> "Nonlinearity":
        """g+ = max(g, 0), the nonlinearity driving the positive part."""
        if self.vanishes_on_negatives:
            return self
        if self.kind == KIND_EXP2:
            return Nonlinearity(KIND_EXP)
        raise ValueError("no positive-part view available")

    def reflected(self) -> "Nonlinearity":
        """t -> -g(-t), governing the reflected problem for data <= 0."""
        if self.kind == KIND_EXP2:
            return Nonlinearity(KIND_EXP2)  # odd
        if self.vanishes_on_negatives:
            # reflection of a one-sided g is identically zero on t >= 0;
            # model that as a power clamped to zero
            return Nonlinearity(KIND_POWER, p=1.0, lo=0.0, hi=0.0)
        raise ValueError("no reflection available")


def make_power(p: float) -> Nonlinearity:
    """g(t) = (t+)^p, zero on negatives."""
    return Nonlinearity(KIND_POWER, p=float(p))


def make_exponential() -> Nonlinearity:
    """g(t) = e^t - 1 for t >= 0, zero on negatives."""
    return Nonlinearity(KIND_EXP)


def make_two_sided_exponential() -> Nonlinearity:
    """g(t) = sign(t) (e^|t| - 1), odd and nonvanishing on negatives."""
    return Nonlinearity(KIND_EXP2)


def from_config(cfg: dict) -> Nonlinearity:
    kind = cfg.get("kind")
    if kind == "power":
        return make_power(cfg.get("p", 2.0))
    if kind == "exp":
        return make_exponential()
    if kind == "exp2sided":
        return make_two_sided_exponential()
    raise ValueError(f"unknown nonlinearity config {cfg!r}")
