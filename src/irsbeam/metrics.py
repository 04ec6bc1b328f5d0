"""Evaluation metrics: per-user SINR sum-rate and the normalized root-MSE.

per_user_sinr and fit_error take the N x M effective channel h of
precoding.effective_channel; sum_rate and nrmse build it from the channels,
through the channel set's rank factor of H_bs as the solver does.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet
from .linalg import identity
from .precoding import effective_channel


def per_user_sinr(h: np.ndarray, f: np.ndarray, noise_var: float) -> np.ndarray:
    """SINR of each user under precoder f, interference from the other columns."""
    gains = np.abs(h.conj().T @ f) ** 2
    signal = np.diag(gains)
    interference = gains.sum(axis=1) - signal
    return signal / (noise_var + interference)


def sum_rate(ch: ChannelSet, upsilon: np.ndarray, f: np.ndarray,
             noise_var: float) -> float:
    """Sum over users of log2(1 + SINR_m), in bits/s/Hz."""
    h = effective_channel(ch, upsilon)
    return float(np.sum(np.log2(1.0 + per_user_sinr(h, f, noise_var))))


def fit_error(alpha: float, h: np.ndarray, f: np.ndarray, noise_var: float) -> float:
    """Sum-MSE objective ||alpha H^H F - I||_F^2 + M alpha^2 noise_var."""
    m = f.shape[1]
    return float(np.linalg.norm(alpha * h.conj().T @ f - identity(m)) ** 2
                 + m * alpha**2 * noise_var)


def nrmse(alpha: float, upsilon: np.ndarray, f: np.ndarray, ch: ChannelSet,
          noise_var: float) -> float:
    """sqrt(fit_error)/sqrt(M); shares the fit_error computation exactly."""
    m = f.shape[1]
    return float(np.sqrt(fit_error(alpha, effective_channel(ch, upsilon), f, noise_var) / m))
