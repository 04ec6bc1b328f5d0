"""Message-passing step for separably constrained quadratic matrix fitting.

Repeated, it minimizes ||A Diag(x) B^T - Z||_F^2 over x subject to a
per-entry constraint, by alternating an SVD-form linear estimator pass on the equivalent system
D x = vec(Z), D = B * A (column-wise Khatri-Rao), with a separable projector
pass. The two passes exchange extrinsic messages (mean vector, scalar
precision). Damping blends successive precision and iterate values to keep
the fixed-point iteration from oscillating. The system is set up from the
SVDs of A and B rather than the matrices, so a caller whose A changes only
by a scalar factors it once (linalg.EconomySVD.scaled), and a caller whose
B has a fixed, low-rank left factor factors B through its small core
(linalg.qr_core_svd); altopt.phase_system does both.

The linear pass needs only omega, z_tilde, Vh r and Vh^H y of the SVD form
(Rangan, Schniter & Fletcher, Vector Approximate Message Passing, IEEE T-IT
2019). How D is held, as the product form kept in its factor SVDs or as
the SVD of the small dense D, is linalg.product_svd's choice alone; both
forms answer the same products (vh_dot, v_dot), so lmmse_extrinsic and
VampStep run each through the same lines.

One run's memory is a VampStep, which altopt.joint_optimize, its one
driver, builds once per stage of a solve and calls once per iteration; a
fixed system is solved by calling it on prepare_system's output in a plain
loop. It takes no settings: the linear pass is unweighted, and the damping
factor, the initial message precision and the precision floor are the
module constants below. The loop's settings are altopt.OptimizerConfig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EconomySVD, KhatriRaoSVD, product_svd
from .projectors import Projector

# Floor for the emitted precisions; a nonpositive or smaller one is clamped to it.
GAMMA_FLOOR = 1e-11
# Weight of the new value when a step blends it with the last one, in (0, 1].
DAMPING = 0.9
# Precision of the first message.
INITIAL_PRECISION = 0.1


@dataclass
class ExtrinsicMessage:
    """Mean vector and scalar precision one module hands to the other."""

    r: np.ndarray
    gamma: float


@dataclass
class VampDiagnostics:
    """Counts of precision clamps taken during a run; never fatal."""

    lmmse_clamps: int = 0
    projector_clamps: int = 0


def prepare_system(svd_a: EconomySVD, svd_b: EconomySVD, z: np.ndarray):
    """SVD-form triple and weighted observation z_tilde = U^H vec(Z) / omega
    for D = B * A against vec(Z), given the economy SVDs of A and B.

    The triple is linalg.product_svd's. The division by omega is a multiply
    by 1/omega, which gives the same bits for the positive kept values.
    """
    z = np.asarray(z, dtype=complex)
    shape = (svd_a.U.shape[0], svd_b.U.shape[0])
    if z.shape != shape:
        raise ValueError(f"prepare_system: Z is {z.shape}, expected {shape}")
    svd = product_svd(svd_a, svd_b)
    if svd.rank == 0:
        raise ValueError("prepare_system: zero system (A or B vanishes)")
    return svd, svd.uh_dot(z.flatten(order="F")) * (1.0 / svd.omega)


def lmmse_extrinsic(svd: EconomySVD | KhatriRaoSVD, z_tilde: np.ndarray, msg: ExtrinsicMessage,
                    diag: VampDiagnostics | None = None) -> ExtrinsicMessage:
    """Extrinsic output of the linear pass, computed in SVD form.

    With K = svd.cols unknowns and R components:
    d = omega^2 / (omega^2 + gamma);
    r_out = r + (K/R) V Diag(d/<d>) (z_tilde - V^H r);
    gamma_out = gamma*<d> / (K/R - <d>), clamped to GAMMA_FLOOR when the
    denominator vanishes or goes negative (possible when R > K).
    V^H r and V y are the triple's vh_dot and v_dot, which a factored triple
    takes through its factors.
    """
    omega = svd.omega
    rank, k = svd.rank, svd.cols
    if z_tilde.shape != (rank,):
        raise ValueError(f"lmmse_extrinsic: z_tilde has length {z_tilde.size}, rank is {rank}")
    if msg.r.shape != (k,):
        raise ValueError(f"lmmse_extrinsic: message mean has length {msg.r.size}, expected {k}")
    omega2 = omega**2
    d = omega2 / (omega2 + msg.gamma)
    d_mean = float(np.add.reduce(d) / d.size)
    ratio = k / rank
    r_out = msg.r + ratio * svd.v_dot((d / d_mean) * (z_tilde - svd.vh_dot(msg.r)))
    denom = ratio - d_mean
    # a vanishing, negative or non-finite denominator clamps once, like a small precision
    gamma_out = msg.gamma * d_mean / denom if 0 < denom < np.inf else 0.0
    if gamma_out < GAMMA_FLOOR:
        gamma_out = GAMMA_FLOOR
        if diag is not None:
            diag.lmmse_clamps += 1
    return ExtrinsicMessage(r_out, gamma_out)


class VampStep:
    """The memory of one message-passing run, and its step: the message the
    next linear pass takes, the damped iterate, the last damped linear-pass
    precision (None until the first step) and the clamp counts. The message
    mean and the damped iterate start as copies of x0, the message precision
    as INITIAL_PRECISION. The projector is held as the object, not its bound
    g, so a wrapper of the projector's methods sees every step.
    """

    def __init__(self, projector: Projector, x0: np.ndarray):
        self.projector = projector
        self.msg = ExtrinsicMessage(x0.copy(), INITIAL_PRECISION)
        self.x_damped = x0.copy()
        self.gamma_tilde_prev: float | None = None
        self.diagnostics = VampDiagnostics()

    def __call__(self, svd: EconomySVD | KhatriRaoSVD, z_tilde: np.ndarray) -> tuple[float, float]:
        """One linear-estimator pass plus one projector pass on the system
        (svd, z_tilde) from prepare_system; updates the memory in place.

        From the second step on, the linear-pass precision and the iterate
        x = g(r_tilde) are damped with DAMPING. The projector pass emits
        precision gamma_hat - gamma_tilde, gamma_hat = <g'>/gamma_tilde, with
        the extrinsic mean built from the damped iterate; a nonpositive
        precision is clamped to GAMMA_FLOOR and the mean falls back to the
        iterate itself (the closed-form mean divided by the clamped precision
        would blow up). The unclamped mean is multiplied by 1/gamma_out,
        which for a positive finite gamma_out gives the bits of the division.
        The iterate and g' come from one projector.g(r_tilde,
        with_prime=True) call, which takes |r_tilde - center| once. Returns
        (gamma_tilde, gamma_hat).
        """
        diag = self.diagnostics
        tilde = lmmse_extrinsic(svd, z_tilde, self.msg, diag)
        gamma_tilde = tilde.gamma
        x_hat, g_prime = self.projector.g(tilde.r, with_prime=True)
        if self.gamma_tilde_prev is not None:
            gamma_tilde = max(DAMPING * gamma_tilde + (1.0 - DAMPING) * self.gamma_tilde_prev,
                              GAMMA_FLOOR)
            x_hat = DAMPING * x_hat + (1.0 - DAMPING) * self.x_damped
        gamma_hat = float(np.add.reduce(g_prime) / g_prime.size) / gamma_tilde
        gamma_out = gamma_hat - gamma_tilde
        if not 0.0 < gamma_out < np.inf:
            gamma_out = GAMMA_FLOOR
            r_out = x_hat.copy()
            diag.projector_clamps += 1
        else:
            r_out = (gamma_hat * x_hat - gamma_tilde * tilde.r) * (1.0 / gamma_out)
        self.msg = ExtrinsicMessage(r_out, gamma_out)
        self.x_damped = x_hat
        self.gamma_tilde_prev = gamma_tilde
        return gamma_tilde, gamma_hat
