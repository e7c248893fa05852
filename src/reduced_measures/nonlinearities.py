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
from functools import reduce

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

    def __call__(self, t):
        return self.value_and_slope(t)[0]

    def value_and_slope(self, t):
        """(g(t), g'(t)) from one transcendental pass: g' is zero past the
        clamps and, for the one-sided kinds, at t <= 0; at the kinks
        themselves it is the interior slope, so the Jacobian stays bounded.
        ``g(t)`` is exactly this value."""
        t = np.asarray(t, dtype=float)
        t1 = np.atleast_1d(t)
        with np.errstate(over="ignore"):
            tt = np.minimum(t1, self.arg_hi) if self.arg_hi < math.inf else t1
            if self.kind == "power":
                x = np.maximum(tt, 0.0)
                pw = x ** (self.p - 1.0)
                v, d = pw * x, self.p * pw
            else:
                x = np.maximum(tt, 0.0) if self.kind == "exp" else np.abs(tt)
                v, d = np.expm1(x), np.exp(x)
                if self.kind == "exp2sided":
                    v *= np.sign(tt)
            # g' is zeroed once, where any clamp binds; each test runs only
            # where its clamp exists, and t <= 0 only where maximum left a
            # slope of 1 (e^0, and 0^0 for p = 1)
            dead = []
            if self.kind == "exp" or self.p == 1.0:
                dead.append(tt <= 0.0)
            if self.arg_hi < math.inf:
                dead.append(t1 > self.arg_hi)
            if self.hi < math.inf:
                dead.append(v > self.hi)
            if self.lo > -math.inf:
                dead.append(v < self.lo)
            if dead:
                d[reduce(np.logical_or, dead)] = 0.0
            if self.hi < math.inf or self.lo > -math.inf:
                v = np.clip(v, self.lo, self.hi)
        if t.ndim == 0:
            return float(v[0]), float(d[0])
        return v, d

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
