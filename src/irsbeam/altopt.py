"""Alternating optimization of the transmit precoder and the phase shifts.

The loop alternates two blocks. The phase block assembles the quadratic
system the phase solver sees at the current precoder and receiver scale
(phase_system, then vamp.prepare_system), runs one message-passing step on
it (a vamp.VampStep, built once per stage of a solve), and takes the
projector image of the damped iterate. The precoder block is the
closed-form precoder, on the effective channel
(precoding.effective_channel), built once per iteration. Nothing fixed is
rebuilt per iteration, nor per solve: the conjugate links, the rank factor
of H_bs and the SVD of H_su^H come from the channel set's cache
(ChannelSet.H_su_H, H_bu_H, H_bs_factor, H_su_H_svd), taken once per set
however many solves share it, the identity from linalg.identity, and the
projector pass takes g and g' from one call. The precoder returns the
sum-MSE objective from its own M x M Gram matrix; the loop stops when that
objective changes by less than a relative tolerance of the last objective
or of M machine epsilons, the larger (a noise-free design with N > M has
an objective of zero up to rounding), or at the iteration cap. Like
run_vamp, the loop takes a vamp.OptimizerConfig.

The loop also stops when it stalls: when the objective has made no new
minimum for STALL_ITERATIONS iterations, a new minimum being an objective
below the stage's last one by the same relative tolerance and floor. Outside
its assumptions a VAMP-type iteration need not converge (Rangan, Schniter &
Fletcher, Vector Approximate Message Passing, IEEE T-IT 2019); with reactive
loads the loop can settle into a cycle whose objective alternates between
two levels, which the relative-change test never stops. A solve that
stalls, or reaches the cap, returns its lowest-objective design at the target
power, not its last one (Prechelt, Early Stopping - But When?, 1998); a solve
that stops by the tolerance returns its last design.

Every solve runs one power schedule, a continuation in the power (Allgower
& Georg, Introduction to Numerical Continuation Methods, 2003). The gate
takes the least eigenvalue of H^H H on the effective channel of the initial
phases. With noise, when it exceeds GATE_RATIO times the precoder's
regulariser M s^2 / P, the weakest eigenmode is in the slow zero-forcing
regime, and the loop first solves at P / START_POWER_DIVISOR, where the
precoder is more regularised. When that stage's stop rule fires, it
stalls, or the budget ends, the loop switches once to P on the same phases
(and the same effective channel, which does not depend on the power) with a
fresh VampStep, and goes on. Otherwise it solves at P from the start. One
loop runs both stages: t_max_outer bounds their phase updates together, the
gate's effective channel serves iteration 0, and each iteration builds one
effective channel, the switch none.

A traced solve runs the same loop and keeps each iteration's objective and
design in a TraceRow; it computes no sum-rate or NRMSE. A gated solve's
rows hold the precoder at P / START_POWER_DIVISOR up to the switch; the
switch's row and every later one hold it at P. The returned design is always
one of the rows: the last one when the solve converged, else the
lowest-objective row at P. metrics.sum_rate and metrics.nrmse score a row's
design, as they score the returned one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .linalg import identity, qr_core_svd
from .precoding import effective_channel, mmse_precoder
from .projectors import get_projector
from .vamp import OptimizerConfig, VampDiagnostics, VampStep, prepare_system

# The continuation gate: a solve whose weakest eigenmode at the initial
# phases, the least eigenvalue of H^H H, exceeds GATE_RATIO times the
# precoder's regulariser M s^2 / P (5 dB) starts at a lower power.
GATE_RATIO = 10 ** 0.5
# The first stage of a gated solve runs at power / START_POWER_DIVISOR (10 dB).
START_POWER_DIVISOR = 10.0
# A stage stalls, and ends, when its objective has made no new minimum for
# STALL_ITERATIONS iterations.
STALL_ITERATIONS = 10


@dataclass
class TraceRow:
    """One outer iteration: the objective the stopping rule compared, and
    the design (phases, precoder, receiver scale) it was compared at. The
    switch's row holds the design at the target power, the reference of the
    next comparison, in place of the first stage's last one. The returned
    design is the last row's when the solve converged, else that of the
    lowest-objective row at the target power."""

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


def phase_system(ch: ChannelSet, f: np.ndarray, alpha: float):
    """The phase subproblem at (f, alpha) as (SVD of A, SVD of B, Z) for
    A = alpha H_su^H, B = (H_bs F)^T and Z = I - alpha H_bu^H F, so that
    ||A Diag(upsilon) B^T - Z||_F^2 is the phase part of the objective.
    A rescales the channel set's SVD of H_su^H (EconomySVD.scaled), so it
    factors nothing; B is factored through its r x M core R_r F
    (linalg.qr_core_svd), with H_bs = Q_r R_r the set's rank factor."""
    q, r = ch.H_bs_factor
    z = identity(f.shape[1]) - alpha * ch.H_bu_H @ f
    return ch.H_su_H_svd.scaled(alpha), qr_core_svd(q, r @ f), z


def joint_optimize(ch: ChannelSet, power: float, noise_var: float,
                   cfg: OptimizerConfig | None = None,
                   rng: np.random.Generator | None = None) -> BeamformingSolution:
    """Run the alternating loop and return phases, precoder and scale.

    The loop runs the schedule in the module docstring: when the gate
    fires on the initial phases, it solves at power / START_POWER_DIVISOR
    until the stop rule fires, the stage stalls or the budget ends, then
    switches once to the target power on the same phases, with a fresh
    VampStep. cfg.t_max_outer bounds the phase updates of both stages
    together, and `iterations` counts them; `converged` says the stop rule
    fired at the target power; the clamp counts run on over both stages.
    A converged solve returns its last design. A solve that stalled at the
    target power (converged false, iterations below cfg.t_max_outer) or
    reached the cap returns the design with the lowest objective among those
    evaluated at the target power. Either way the returned precoder is the
    precoder at `power` on the returned phases.

    The phase vector used for the precoder refresh, the trace, and the return
    value is always the projector image of the damped iterate, so feasibility
    is exact at every outer iteration. phase_system and prepare_system are
    module names looked up at each call, never stored, so a wrapper bound to
    either name sees every call.
    """
    cfg = cfg or OptimizerConfig()
    rng = rng or np.random.default_rng()
    projector = get_projector(cfg.constraint)
    upsilon = projector.initial_point(ch.dims[2], rng)
    step = VampStep(projector, upsilon)
    m = ch.dims[1]
    err_floor = m * float(np.finfo(float).eps)
    h = effective_channel(ch, upsilon)
    stage_power = power
    # the gate, without a division, so that a degenerate power or noise
    # reaches the precoder's own refusal
    if noise_var > 0 and np.linalg.eigvalsh(h.conj().T @ h)[0] * power > GATE_RATIO * m * noise_var:
        stage_power = power / START_POWER_DIVISOR
    trace: list[TraceRow] = []
    converged = False
    best = None
    # iteration 0 evaluates the initial phases; each later one first updates them
    for t in range(cfg.t_max_outer + 1):
        if t > 0:
            step(*prepare_system(*phase_system(ch, sol.F, sol.alpha)))
            upsilon = projector.g(step.x_damped)
            h = effective_channel(ch, upsilon)
        sol = mmse_precoder(h, stage_power, noise_var)
        stop = t > 0 and abs(sol.error - err_prev) < cfg.epsilon_outer * max(err_prev, err_floor)
        # a new minimum of the stage: below its last one by the stop rule's margin
        if t == 0 or sol.error < stage_min - cfg.epsilon_outer * max(stage_min, err_floor):
            stage_min, since_min = sol.error, 0
        else:
            since_min += 1
        stall = since_min == STALL_ITERATIONS
        if stage_power != power and (stop or stall or t == cfg.t_max_outer):
            # the switch: the same phases and channel at the target power,
            # and fresh message-passing memory that keeps the clamp counts
            stage_power, stop, stall = power, False, False
            sol = mmse_precoder(h, power, noise_var)
            stage_min, since_min = sol.error, 0
            clamps = step.diagnostics
            step = VampStep(projector, upsilon)
            step.diagnostics = clamps
        # the incumbent: the lowest-objective design at the target power
        if stage_power == power and (best is None or sol.error < best[0].error):
            best = sol, upsilon
        if cfg.collect_trace:
            trace.append(TraceRow(t, sol.error, upsilon, sol.F, sol.alpha))
        if stop or stall:
            converged = stop
            break
        err_prev = sol.error

    # a solve that stalled or reached the cap returns its incumbent
    if not converged:
        sol, upsilon = best
    return BeamformingSolution(upsilon, sol.F, sol.alpha, t, converged, trace,
                               step.diagnostics)
