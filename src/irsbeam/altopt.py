"""Alternating optimization of the transmit precoder and the phase shifts.

The loop alternates two blocks. The phase block is a PhaseStep, built once
per solve: each call refreshes the quadratic system the phase solver sees
(the precoder and receiver scale enter its matrices), runs one
message-passing step on it (vamp.VampStep), and returns the projector image
of the damped iterate. The precoder block is the closed-form precoder, on
the effective channel (precoding.effective_channel), built once per
iteration. Nothing fixed is rebuilt per iteration: the step factors H_su^H
once per solve, the conjugate links and the rank factor of H_bs come from
the channel set's cache (ChannelSet.H_su_H, H_bu_H, H_bs_factor), the
identity from linalg.identity, and the projector pass takes g and g' from
one call. The precoder returns the sum-MSE objective from its own M x M
Gram matrix; the loop stops when that objective changes by less than a
relative tolerance of the last objective or of M machine epsilons, the
larger (a noise-free design with N > M has an objective of zero up to
rounding), or at the iteration cap. Like run_vamp, the loop takes a
vamp.OptimizerConfig.

A traced solve runs the same loop and keeps each iteration's objective and
design in a TraceRow; it computes no sum-rate or NRMSE. metrics.sum_rate and
metrics.nrmse score a row's design, as they score the returned one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .linalg import economy_svd, identity, qr_core_svd
from .precoding import effective_channel, mmse_precoder
from .projectors import Projector, get_projector
from .vamp import OptimizerConfig, VampDiagnostics, VampStep, prepare_system


@dataclass
class TraceRow:
    """One outer iteration: the objective the stopping rule compared, and
    the design (phases, precoder, receiver scale) it was compared at."""

    iteration: int
    error: float
    upsilon: np.ndarray
    F: np.ndarray
    alpha: float


@dataclass
class BeamformingSolution:
    upsilon: np.ndarray
    F: np.ndarray
    alpha: float
    iterations: int
    converged: bool
    trace: list[TraceRow]
    diagnostics: VampDiagnostics


class PhaseStep:
    """The phase half of the alternating loop, built once per solve from the
    channel set, the projector and the initial phases, and called once per
    outer iteration with the precoder and the receiver scale.

    A = alpha H_su^H changes only through alpha, so H_su^H is factored once
    and each call rescales its singular values (EconomySVD.scaled, which
    hands over |Vh|^2). B = (H_bs F)^T is factored through its r x M core
    R_r F (linalg.qr_core_svd), with H_bs = Q_r R_r the channel set's rank
    factor (ChannelSet.H_bs_factor). The VampStep `vamp` holds the
    message-passing memory and the clamp counts. prepare_system is a module
    name looked up at each call, never stored, so a wrapper bound to that
    name sees every call.
    """

    def __init__(self, ch: ChannelSet, projector: Projector, upsilon0: np.ndarray):
        self.ch = ch
        self.projector = projector
        self.svd_su = economy_svd(ch.H_su_H)
        self.vamp = VampStep(projector, upsilon0)

    def system(self, f: np.ndarray, alpha: float):
        """The subproblem at (f, alpha) as (SVD of A, SVD of B, Z) for
        A = alpha H_su^H, B = (H_bs F)^T and Z = I - alpha H_bu^H F, so that
        ||A Diag(upsilon) B^T - Z||_F^2 is the phase part of the objective."""
        q, r = self.ch.H_bs_factor
        z = identity(f.shape[1]) - alpha * self.ch.H_bu_H @ f
        return self.svd_su.scaled(alpha), qr_core_svd(q, r @ f), z

    def __call__(self, f: np.ndarray, alpha: float) -> np.ndarray:
        """One VampStep on the subproblem at (f, alpha); returns the
        projector image of the damped iterate, the new feasible phases."""
        self.vamp(*prepare_system(*self.system(f, alpha)))
        return np.asarray(self.projector.g(self.vamp.x_damped))


def joint_optimize(ch: ChannelSet, power: float, noise_var: float,
                   cfg: OptimizerConfig | None = None,
                   rng: np.random.Generator | None = None) -> BeamformingSolution:
    """Run the alternating loop and return phases, precoder and scale.

    The phase vector used for the precoder refresh, the trace, and the return
    value is always the projector image of the damped iterate, so feasibility
    is exact at every outer iteration.
    """
    cfg = cfg or OptimizerConfig()
    rng = rng or np.random.default_rng()
    projector = get_projector(cfg.constraint)
    upsilon = projector.initial_point(ch.dims[2], rng)
    step = PhaseStep(ch, projector, upsilon)
    err_floor = ch.dims[1] * float(np.finfo(float).eps)
    trace: list[TraceRow] = []
    converged = False
    # iteration 0 evaluates the initial phases; each later one first updates them
    for t in range(cfg.t_max_outer + 1):
        if t > 0:
            upsilon = step(sol.F, sol.alpha)
        sol = mmse_precoder(effective_channel(ch, upsilon), power, noise_var)
        err = sol.error
        if cfg.collect_trace:
            trace.append(TraceRow(t, err, upsilon, sol.F, sol.alpha))
        if t > 0 and abs(err - err_prev) < cfg.epsilon_outer * max(err_prev, err_floor):
            converged = True
            break
        err_prev = err

    return BeamformingSolution(upsilon, sol.F, sol.alpha, t, converged, trace,
                               step.vamp.diagnostics)
