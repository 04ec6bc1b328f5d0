"""Per-element constraint projectors for the phase solver.

Two reflector models are supported. The ideal one constrains each reflection
coefficient to the unit circle (pure phase shift). The practical one models a
reflector terminated by a tunable reactive load, upsilon = -1/(1 + j*chi) with
real chi, a circle of radius 1/2 centered at -1/2: phase restricted to
[-pi/2, pi/2] and magnitude strictly below 1 for chi != 0. Each projector
ships with the real scalar derivative the message-passing precision update
needs; for the reactive model that is the absolute value of the complex
(Wirtinger) derivative. Taking the real part instead would be an alternative
reading, but the absolute value is what the precision update here expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Cap on the unimodular derivative as r -> 0, where 1/(2|r|) blows up.
DERIVATIVE_CAP = 1e12
# Reactance magnitude standing in for the chi -> +-inf limit on the
# degenerate Im(r) = 0 branch with 1 + 2*Re(r) >= 0.
CHI_LIMIT = 1e6
_FD_STEP = 1e-6


def _as_complex(r):
    arr = np.asarray(r, dtype=complex)
    return arr, arr.ndim == 0


def unimodular_project(r_tilde):
    """Nearest unit-modulus point, r/|r|. Below the smallest normal |r|, where
    1/|r| overflows, the result is 1: every unit point is nearest to 1e-308."""
    r, scalar = _as_complex(r_tilde)
    mag = np.abs(r)
    normal = mag >= np.finfo(float).tiny
    out = np.where(normal, r / np.where(normal, mag, 1.0), 1.0 + 0j)
    return complex(out) if scalar else out


def unimodular_derivative(r_tilde):
    """1/(2|r|), capped at DERIVATIVE_CAP near the origin."""
    r, scalar = _as_complex(r_tilde)
    mag = np.abs(r)
    out = np.minimum(0.5 / np.maximum(mag, 0.5 / DERIVATIVE_CAP), DERIVATIVE_CAP)
    return float(out) if scalar else out


def reactance_opt(r_tilde):
    """Reactance minimizing |r + 1/(1 + j*chi)|^2 over real chi.

    For b = Im(r) != 0 this is the positive-curvature root
    (c + sqrt(c^2 + 4 b^2)) / (2 b) with c = 1 + 2*Re(r). On the b = 0 branch,
    taken too where that root overflows, the objective is monotone in chi^2:
    chi = 0 when c < 0 (upsilon = -1), else CHI_LIMIT stands in for |chi| -> inf.
    """
    r, scalar = _as_complex(r_tilde)
    a, b = r.real, r.imag
    c = 1.0 + 2.0 * a
    s = np.sqrt(c * c + 4.0 * b * b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        chi = (c + s) / (2.0 * b)
    chi = np.where((b == 0.0) | np.isinf(chi), np.where(c < 0.0, 0.0, CHI_LIMIT), chi)
    return float(chi) if scalar else chi


def reactive_project(r_tilde):
    """Closest point of the reactive-load circle, -1/(1 + j*chi_opt).

    The output's imaginary part carries the sign of Im(r). Magnitude is
    strictly below 1 whenever chi_opt != 0.
    """
    r, scalar = _as_complex(r_tilde)
    out = -1.0 / (1.0 + 1j * reactance_opt(r))
    return complex(out) if scalar else out


def _reactive_derivative_closed(r: np.ndarray) -> np.ndarray:
    # Wirtinger derivative of the projector assembled from the two partials
    # of the reactance map; divides by Im(r), so only valid off the real axis.
    a, b = r.real, r.imag
    c = 1.0 + 2.0 * a
    s = np.sqrt(c * c + 4.0 * b * b)
    d_re = 1.0 / b + c / (b * s)
    d_im = -c / (2.0 * b * b) - c * c / (2.0 * b * b * s)
    chi_prime = 0.5 * (d_re - 1j * d_im)
    chi = (c + s) / (2.0 * b)
    return np.abs(1j * chi_prime / (1.0 + 1j * chi) ** 2)


def _reactive_derivative_fd(r: np.ndarray, h: float = _FD_STEP) -> np.ndarray:
    d_re = (reactive_project(r + h) - reactive_project(r - h)) / (2.0 * h)
    d_im = (reactive_project(r + 1j * h) - reactive_project(r - 1j * h)) / (2.0 * h)
    return np.abs(0.5 * (d_re - 1j * d_im))


def reactive_derivative(r_tilde):
    """|Wirtinger derivative| of reactive_project.

    Closed form away from the real axis; symmetric finite differences with
    step 1e-6 on the Im(r) = 0 branch, where the closed-form partials divide
    by Im(r).
    """
    r, scalar = _as_complex(r_tilde)
    r = np.atleast_1d(r)
    out = np.empty(r.shape, dtype=float)
    off_axis = r.imag != 0.0
    if np.any(off_axis):
        out[off_axis] = _reactive_derivative_closed(r[off_axis])
    if np.any(~off_axis):
        out[~off_axis] = _reactive_derivative_fd(r[~off_axis])
    return float(out[0]) if scalar else out.reshape(np.shape(r_tilde))


@dataclass(frozen=True)
class Projector:
    """Separable constraint map g(r) and its real scalar derivative g_prime(r);
    `initial_point(k, rng)` returns a feasible start vector."""

    name: str
    g: Callable
    g_prime: Callable
    initial_point: Callable


def _uni_init(k: int, rng: np.random.Generator) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(k))


def _reactive_init(k: int, rng: np.random.Generator) -> np.ndarray:
    # chi = 0 for every element, i.e. upsilon = -1.
    return -np.ones(k, dtype=complex)


UNIMODULAR = Projector(
    name="unimodular",
    g=unimodular_project,
    g_prime=unimodular_derivative,
    initial_point=_uni_init,
)

REACTIVE = Projector(
    name="reactive",
    g=reactive_project,
    g_prime=reactive_derivative,
    initial_point=_reactive_init,
)

_BY_NAME = {p.name: p for p in (UNIMODULAR, REACTIVE)}


def get_projector(name: str) -> Projector:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown projector {name!r}; have {sorted(_BY_NAME)}") from None
