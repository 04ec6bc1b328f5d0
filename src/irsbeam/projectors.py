"""Per-element constraint projectors for the phase solver.

Both reflector models constrain each reflection coefficient to a circle, so
each projector is the nearest point of a circle in closed form,
g(r) = center + radius (r - center)/|r - center|. The ideal model is the unit
circle (pure phase shift). The practical one models a reflector terminated by
a tunable reactive load, upsilon = -1/(1 + j*chi) with real chi: the circle
|upsilon + 1/2| = 1/2, phase restricted to [-pi/2, pi/2] and magnitude
strictly below 1 for chi != 0. The load of a point on it is
chi = -Im(1/upsilon); its point 0 is the open-circuit limit chi -> +-inf.
Each projector ships with the derivative the message-passing precision update
needs: for a radial projection the complex (Wirtinger) derivative is the real
number radius/(2|r - center|). The message-passing step wants both at the
same point, so g(r, with_prime=True) returns the pair from one |r - center|,
and g_prime(r) is that pair's second half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Cap on the derivative, in units of the radius, as r -> center, where
# 1/(2|r - center|) blows up.
DERIVATIVE_CAP = 1e12

# Smallest positive normal double; |r - center| below it counts as a tie.
_TINY = np.finfo(float).tiny

# ndarray.min and .max without their Python-level wrappers
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


@dataclass(frozen=True)
class Projector:
    """Nearest-point map g(r) onto the circle |x - center| = radius and its
    real scalar derivative g_prime(r), or both from g(r, with_prime=True);
    `initial_point(k, rng)` returns a feasible start vector."""

    name: str
    center: float
    radius: float
    initial_point: Callable

    def g(self, r_tilde, with_prime: bool = False):
        """center + radius (r - center)/|r - center|. Below the smallest normal
        |r - center|, where the division overflows, every point of the circle
        is nearest and the result is center + radius. NaN propagates, and an
        infinite entry gives NaN, both without a floating-point warning.

        The direction is d * (1/|d|): for a positive finite real divisor that
        is bit-equal to numpy's complex division d/|d| at the cost of a SIMD
        multiply, up to the sign of a zero part, which adding the center
        clears. One min and one max of |d| find the ties and infinities (NaN
        too), and only then are those entries replaced; an infinite d would
        meet 1/|d| = 0 in an invalid inf * 0, so NaN stands in for it.

        With with_prime, returns (g(r), g_prime(r)), the derivative
        radius/(2|r - center|) capped at radius * DERIVATIVE_CAP, taken from
        the same |r - center| before the tie entries are replaced."""
        r = np.asarray(r_tilde, dtype=complex)
        scalar = r.ndim == 0
        # on the unit circle r - 0 and 1 * u are exact identities, and skipped
        d = r - self.center if self.center else r
        mag = np.abs(d)
        if with_prime:
            slope = np.minimum(0.5 * self.radius / np.maximum(mag, 0.5 / DERIVATIVE_CAP),
                               self.radius * DERIVATIVE_CAP)
        if mag.size and not (_TINY <= _MIN(mag) and _MAX(mag) < np.inf):
            tie = mag < _TINY
            d = np.where(tie, 1.0 + 0j, np.where(np.isinf(mag), complex(np.nan, np.nan), d))
            mag = np.where(tie, 1.0, mag)
        u = d * (1.0 / mag)
        out = self.center + (self.radius * u if self.radius != 1.0 else u)
        if not with_prime:
            return complex(out) if scalar else out
        return (complex(out), float(slope)) if scalar else (out, slope)

    def g_prime(self, r_tilde):
        """radius/(2|r - center|), capped at radius * DERIVATIVE_CAP near the
        center: the second half of g(r, with_prime=True)."""
        return self.g(r_tilde, with_prime=True)[1]


def _uni_init(k: int, rng: np.random.Generator) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(k))


def _reactive_init(k: int, rng: np.random.Generator) -> np.ndarray:
    # chi = 0 for every element, i.e. upsilon = -1.
    return -np.ones(k, dtype=complex)


UNIMODULAR = Projector(name="unimodular", center=0.0, radius=1.0, initial_point=_uni_init)
REACTIVE = Projector(name="reactive", center=-0.5, radius=0.5, initial_point=_reactive_init)

_BY_NAME = {p.name: p for p in (UNIMODULAR, REACTIVE)}


def get_projector(name: str) -> Projector:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown projector {name!r}; have {sorted(_BY_NAME)}") from None
