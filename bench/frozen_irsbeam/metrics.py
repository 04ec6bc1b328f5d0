"""Evaluation metrics: per-user SINR sum-rate and the normalized root-MSE."""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet


def effective_rows(ch: ChannelSet, upsilon: np.ndarray,
                   include_direct: bool = True) -> np.ndarray:
    """M x N matrix whose row m is the user-m effective channel
    h_su,m^H Diag(upsilon) H_bs + h_bu,m^H."""
    rows = ch.H_su.conj().T @ (np.asarray(upsilon)[:, None] * ch.H_bs)
    if include_direct:
        rows = rows + ch.H_bu.conj().T
    return rows


def per_user_sinr(ch: ChannelSet, upsilon: np.ndarray, f: np.ndarray,
                  noise_var: float, include_direct: bool = True) -> np.ndarray:
    """SINR of each user under precoder f, interference from the other columns."""
    gains = np.abs(effective_rows(ch, upsilon, include_direct) @ f) ** 2
    signal = np.diag(gains)
    interference = gains.sum(axis=1) - signal
    return signal / (noise_var + interference)


def sum_rate(ch: ChannelSet, upsilon: np.ndarray, f: np.ndarray,
             noise_var: float, include_direct: bool = True) -> float:
    """Sum over users of log2(1 + SINR_m), in bits/s/Hz."""
    return float(np.sum(np.log2(1.0 + per_user_sinr(ch, upsilon, f, noise_var,
                                                    include_direct))))


def fit_error(alpha: float, upsilon: np.ndarray, f: np.ndarray, ch: ChannelSet,
              noise_var: float, include_direct: bool = True) -> float:
    """Sum-MSE objective ||alpha H^H F - I||_F^2 + M alpha^2 noise_var."""
    m = f.shape[1]
    rows = effective_rows(ch, upsilon, include_direct)
    return float(np.linalg.norm(alpha * rows @ f - np.eye(m)) ** 2
                 + m * alpha**2 * noise_var)


def nrmse(alpha: float, upsilon: np.ndarray, f: np.ndarray, ch: ChannelSet,
          noise_var: float, include_direct: bool = True) -> float:
    """sqrt(fit_error)/sqrt(M); shares the fit_error computation exactly.

    include_direct=False zeroes the direct link at evaluation time only, for
    the reflector-path-only convergence figures.
    """
    m = f.shape[1]
    return float(np.sqrt(fit_error(alpha, upsilon, f, ch, noise_var,
                                   include_direct) / m))
