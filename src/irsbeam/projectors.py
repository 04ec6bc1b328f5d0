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
number radius/(2|r - center|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Cap on the derivative, in units of the radius, as r -> center, where
# 1/(2|r - center|) blows up.
DERIVATIVE_CAP = 1e12


def _as_complex(r):
    arr = np.asarray(r, dtype=complex)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class Projector:
    """Nearest-point map g(r) onto the circle |x - center| = radius and its
    real scalar derivative g_prime(r); `initial_point(k, rng)` returns a
    feasible start vector."""

    name: str
    center: float
    radius: float
    initial_point: Callable

    def g(self, r_tilde):
        """center + radius (r - center)/|r - center|. Below the smallest normal
        |r - center|, where the division overflows, every point of the circle
        is nearest and the result is center + radius. NaN propagates."""
        r, scalar = _as_complex(r_tilde)
        d = r - self.center
        mag = np.abs(d)
        tie = mag < np.finfo(float).tiny
        out = self.center + self.radius * np.where(tie, 1.0 + 0j, d / np.where(tie, 1.0, mag))
        return complex(out) if scalar else out

    def g_prime(self, r_tilde):
        """radius/(2|r - center|), capped at radius * DERIVATIVE_CAP near the center."""
        r, scalar = _as_complex(r_tilde)
        mag = np.abs(r - self.center)
        out = np.minimum(0.5 * self.radius / np.maximum(mag, 0.5 / DERIVATIVE_CAP),
                         self.radius * DERIVATIVE_CAP)
        return float(out) if scalar else out


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
