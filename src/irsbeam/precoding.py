"""Effective-channel assembly and the closed-form sum-MMSE transmit precoder.

The precoder and its receiver scale come from the Lagrangian of the sum-MSE
objective under the total-power constraint; the normalization makes
||F||_F^2 = P hold exactly, not just to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet


@dataclass
class PrecodingSolution:
    F: np.ndarray       # N x M
    alpha: float        # receiver scale


def effective_channel(ch: ChannelSet, upsilon: np.ndarray) -> np.ndarray:
    """N x M effective channel H with H^H = H_su^H Diag(upsilon) H_bs + H_bu^H."""
    upsilon = np.asarray(upsilon)
    k = ch.H_bs.shape[0]
    if upsilon.shape != (k,):
        raise ValueError(f"effective_channel: phase vector has shape {upsilon.shape}, expected ({k},)")
    h_h = ch.H_su.conj().T @ (upsilon[:, None] * ch.H_bs) + ch.H_bu.conj().T
    return h_h.conj().T


def mmse_precoder(h: np.ndarray, power: float, noise_var: float) -> PrecodingSolution:
    """Closed-form sum-MMSE precoder F = alpha^-1 [HH^H + M s^2 I/P]^-1 H.

    The receiver scale alpha = sqrt(Tr([HH^H + M s^2 I/P]^-2 HH^H) / P) is
    evaluated as ||G^-1 H||_F / sqrt(P) with G the regularized Gram matrix,
    which is the same quantity without forming G^-2. The shared
    normalization by alpha makes ||F||_F^2 = P an algebraic identity.
    """
    h = np.asarray(h, dtype=complex)
    n, m = h.shape
    if not np.any(h):
        raise ValueError("precoder: all-zero channel, no signal path")
    if power <= 0:
        raise ValueError(f"precoder: power must be positive, got {power}")
    gram = h @ h.conj().T + (m * noise_var / power) * np.eye(n)
    x = None
    if noise_var > 0:
        try:
            x = np.linalg.solve(gram, h)
        except np.linalg.LinAlgError:
            pass
    if x is None:
        # gram is singular when noise-free, or when M < N and its regularizer
        # falls below rounding against ||h||^2: use the pseudo-inverse
        x = np.linalg.pinv(gram) @ h
    alpha = float(np.linalg.norm(x) / np.sqrt(power))
    return PrecodingSolution(x / alpha, alpha)
