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


@dataclass(frozen=True)
class Nonlinearity:
    """``kind`` names the family: ``"power"`` is (t+)^p, ``"exp"`` is
    e^t - 1 on t >= 0 and zero below, ``"exp2sided"`` is sign(t) (e^|t| - 1)."""

    kind: str
    p: float = 0.0
    lo: float = -math.inf  # value clamp below
    hi: float = math.inf  # value clamp above
    arg_hi: float = math.inf  # argument clamp (second truncation family)

    def __post_init__(self):
        if self.kind not in ("power", "exp", "exp2sided"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "power" and not 1.0 <= self.p < math.inf:
            reason = "must be >= 1" if self.p < 1.0 else f"{self.p} is not finite"
            raise ValueError(f"power exponent {reason}")

    # --- evaluation --------------------------------------------------------
    # A scalar is evaluated as a one-element array (numpy's scalar power
    # rounds differently from its array loop) and returned as a float.
    # Overflow saturates to inf and is then clipped to the cap, so the
    # warning carries no information.

    def _unclamped(self, tt: np.ndarray) -> np.ndarray:
        """g at the argument-clamped points ``tt``, before the value clamp."""
        if self.kind == "power":
            return np.where(tt > 0.0, np.maximum(tt, 0.0) ** self.p, 0.0)
        if self.kind == "exp":
            return np.where(tt > 0.0, np.expm1(tt), 0.0)
        return np.sign(tt) * np.expm1(np.abs(tt))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            tt = np.minimum(np.atleast_1d(t), self.arg_hi)
            v = np.clip(self._unclamped(tt), self.lo, self.hi)
        return float(v[0]) if t.ndim == 0 else v

    def deriv(self, t):
        # zero past the clamps, the interior slope at the kinks themselves,
        # so the Jacobian stays bounded
        t = np.asarray(t, dtype=float)
        t1 = np.atleast_1d(t)
        with np.errstate(over="ignore"):
            tt = np.minimum(t1, self.arg_hi)
            v = self._unclamped(tt)
            if self.kind == "power":
                safe = np.maximum(tt, 1e-300)
                d = np.where(tt > 0.0, self.p * safe ** (self.p - 1.0), 0.0)
            elif self.kind == "exp":
                d = np.where(tt > 0.0, np.exp(tt), 0.0)
            else:
                d = np.exp(np.abs(tt))
            d = np.where((v > self.hi) | (v < self.lo) | (t1 > self.arg_hi), 0.0, d)
        return float(d[0]) if t.ndim == 0 else d

    # --- structure flags ---------------------------------------------------

    @property
    def vanishes_on_negatives(self) -> bool:
        return self.kind in ("power", "exp")

    @property
    def convex(self) -> bool:
        # convex on R for the one-sided members; the odd two-sided
        # exponential is not (concave on the negative axis)
        return self.kind in ("power", "exp")

    def subcritical_for(self, dim: int) -> bool:
        """Whether every measure is good on a domain of this dimension:
        powers below N/(N-2) qualify; exponentials only in dimension 1."""
        if self.kind == "power":
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

    def reflected(self) -> "Nonlinearity":
        """t -> -g(-t), governing the reflected problem for data <= 0."""
        if self.kind == "exp2sided":
            return Nonlinearity("exp2sided")  # odd
        if self.vanishes_on_negatives:
            # reflection of a one-sided g is identically zero on t >= 0;
            # model that as a power clamped to zero
            return Nonlinearity("power", p=1.0, lo=0.0, hi=0.0)
        raise ValueError("no reflection available")


def make_power(p: float) -> Nonlinearity:
    """g(t) = (t+)^p, zero on negatives."""
    return Nonlinearity("power", p=float(p))


def make_exponential() -> Nonlinearity:
    """g(t) = e^t - 1 for t >= 0, zero on negatives."""
    return Nonlinearity("exp")


def make_two_sided_exponential() -> Nonlinearity:
    """g(t) = sign(t) (e^|t| - 1), odd and nonvanishing on negatives."""
    return Nonlinearity("exp2sided")


def from_config(cfg: dict) -> Nonlinearity:
    kind = cfg.get("kind")
    if kind == "power":
        return make_power(cfg.get("p", 2.0))
    if kind == "exp":
        return make_exponential()
    if kind == "exp2sided":
        return make_two_sided_exponential()
    raise ValueError(f"unknown nonlinearity config {cfg!r}")
