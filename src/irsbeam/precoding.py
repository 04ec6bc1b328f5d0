"""Effective-channel assembly and the closed-form sum-MMSE transmit precoder.

The precoder and its receiver scale come from the Lagrangian of the sum-MSE
objective under the total-power constraint; the normalization makes
||F||_F^2 = P hold exactly, not just to rounding. Every kernel works in the
user dimension M: the push-through identity
(H H^H + c I_N)^-1 H = H (H^H H + c I_M)^-1 turns the N x N regularized
solve into an M x M one, and the same M x M Gram matrix gives the sum-MSE
objective at the precoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .linalg import identity


@dataclass
class PrecodingSolution:
    F: np.ndarray       # N x M
    alpha: float        # receiver scale
    error: float        # sum-MSE objective at (F, alpha) on the channel it was built for


def effective_channel(ch: ChannelSet, upsilon: np.ndarray) -> np.ndarray:
    """N x M effective channel H with H^H = H_su^H Diag(upsilon) H_bs + H_bu^H.

    H_bs enters through the channel set's rank factor H_bs = Q_r R_r
    (ChannelSet.H_bs_factor), so the product runs at width r = rank(H_bs)
    instead of N: ((H_su^H Diag(upsilon)) Q_r) R_r, equal to the direct
    form to rounding. The phases scale the M x K factor H_su^H rather than
    the K x N H_bs. The conjugate transposes ChannelSet.H_su_H and H_bu_H
    are cached on the set like the factor, taken once per set rather than
    once per call. All-zero phases leave exactly H_bu: the reflector term is
    a product of zeros.
    """
    upsilon = np.asarray(upsilon)
    k = ch.H_bs.shape[0]
    if upsilon.shape != (k,):
        raise ValueError(f"effective_channel: phase vector has shape {upsilon.shape}, expected ({k},)")
    q, r = ch.H_bs_factor
    return (((ch.H_su_H * upsilon) @ q) @ r + ch.H_bu_H).conj().T


def _frobenius(a: np.ndarray) -> float:
    """np.linalg.norm(a) of a complex array without its dispatch: the same
    two dot products in the same order, so the same bits. math.sqrt rounds
    a float64 exactly as np.sqrt does, without a ufunc call."""
    x = a.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def mmse_precoder(h: np.ndarray, power: float, noise_var: float) -> PrecodingSolution:
    """Closed-form sum-MMSE precoder F = alpha^-1 [HH^H + M s^2 I/P]^-1 H.

    Evaluated in push-through form: with the M x M Gram matrix
    G = H^H H + (M s^2/P) I_M and X = G^-1 (np.linalg.inv, the same LAPACK
    solve as solve(G, I) and the same bits), the regularized solve is
    [HH^H + M s^2 I/P]^-1 H = H X. The receiver scale
    alpha = sqrt(Tr([HH^H + M s^2 I/P]^-2 HH^H) / P) is ||H X||_F / sqrt(P),
    and the shared normalization F = H X / alpha makes ||F||_F^2 = P an
    algebraic identity. Since alpha H^H F = (H^H H) X, the sum-MSE objective
    ||alpha H^H F - I||_F^2 + M alpha^2 s^2 is returned as `error` from
    M x M matrices alone. F is H X times 1/alpha, which for alpha > 0 gives
    the bits of the division.
    """
    h = np.asarray(h, dtype=complex)
    m = h.shape[1]
    # each rule is written so that NaN fails it
    if not 0.0 < power < np.inf:
        raise ValueError(f"precoder: power must be positive and finite, got {power}")
    if not 0.0 <= noise_var < np.inf:
        raise ValueError(f"precoder: noise_var must be non-negative and finite, got {noise_var}")
    hh = h.conj().T @ h
    eye = identity(m)
    gram = hh + (m * noise_var / power) * eye
    x = None
    if noise_var > 0:
        try:
            x = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            pass
    if x is None:
        # gram is singular when the user columns of h are dependent and the
        # regularizer is zero or below rounding against ||h||^2: use the
        # pseudo-inverse, for which pinv(HH^H) H = H pinv(H^H H) holds too
        x = np.linalg.pinv(gram)
    f = h @ x
    alpha = _frobenius(f) / math.sqrt(power)
    # a non-finite channel entry reaches alpha as NaN or inf, NaN fails this
    # too, and an all-zero channel gives alpha = 0 on either branch, so the
    # scan that names it runs only on a refusal
    if not 0.0 < alpha < np.inf:
        if not np.logical_or.reduce(h, axis=None):
            raise ValueError("precoder: all-zero channel, no signal path")
        raise ValueError(f"precoder: receiver scale must be positive and finite, got {alpha}")
    error = float(_frobenius(hh @ x - eye) ** 2 + m * alpha**2 * noise_var)
    return PrecodingSolution(f * (1.0 / alpha), alpha, error)
