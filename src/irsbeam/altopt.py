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
sum-MSE objective from its own M x M Gram matrix; a stage ends when that
objective changes by less than a relative tolerance of the last objective
or of M machine epsilons, the larger (a noise-free design with N > M has
an objective of zero up to rounding), or at the iteration cap. The
tolerance, the cap, the constraint and whether to keep a trace are the
settings of OptimizerConfig, checked when built.

A stage also ends when it stalls: when the objective has made no new
minimum for STALL_ITERATIONS iterations, a new minimum being an objective
below the stage's last one by the same relative tolerance and floor. Outside
its assumptions a VAMP-type iteration need not converge (Rangan, Schniter &
Fletcher, Vector Approximate Message Passing, IEEE T-IT 2019); with reactive
loads the loop can settle into a cycle whose objective alternates between
two levels, which the relative-change test never stops. A solve whose
last stage stalls, or reaches the cap, returns that stage's lowest-objective
design, not its last one (Prechelt, Early Stopping - But When?, 1998); a solve
that stops by the tolerance returns its last design.

Every solve runs a power schedule of one or two stages, a continuation in
the power (Allgower & Georg, Introduction to Numerical Continuation
Methods, 2003). The gate takes the least eigenvalue of H^H H on the
effective channel of the initial phases. With noise, when it exceeds
GATE_RATIO times the precoder's regulariser M s^2 / P, the weakest eigenmode
is in the slow zero-forcing regime, and the schedule is (P /
START_POWER_DIVISOR, P), the first stage more regularised; otherwise it is
(P,). Each stage starts a fresh VampStep on the current phases and
effective channel, evaluates the precoder there and then runs the loop
until its stop rule fires, it stalls, or t_max_outer, which bounds the
phase updates of all stages together, is reached. The gate's effective
channel serves iteration 0, each phase update builds one, and a stage
change none, since the effective channel does not depend on the power.

A traced solve runs the same loop and keeps each iteration's objective and
design in a TraceRow; it computes no sum-rate or NRMSE. A stage's first row
replaces the previous stage's last one, so a gated solve's rows hold the
precoder at P / START_POWER_DIVISOR up to the second stage's first row and
at P from there on. The returned design is always one of the rows: the last
one when the solve converged, else the last stage's lowest-objective row.
metrics.sum_rate and metrics.nrmse score a row's design, as they score the
returned one.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .channel import ChannelSet
from .linalg import identity, qr_core_svd
from .precoding import effective_channel, mmse_precoder
from .projectors import get_projector
from .vamp import VampDiagnostics, VampStep, prepare_system

# The continuation gate: a solve whose weakest eigenmode at the initial
# phases, the least eigenvalue of H^H H, exceeds GATE_RATIO times the
# precoder's regulariser M s^2 / P (5 dB) starts at a lower power.
GATE_RATIO = 10 ** 0.5
# The first stage of a gated solve runs at power / START_POWER_DIVISOR (10 dB).
START_POWER_DIVISOR = 10.0
# A stage stalls, and ends, when its objective has made no new minimum for
# STALL_ITERATIONS iterations.
STALL_ITERATIONS = 10


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of one solve of joint_optimize."""

    epsilon_outer: float = 1e-3     # relative objective change that ends a stage
    t_max_outer: int = 100          # cap on the phase updates of all stages
    constraint: str = "unimodular"  # projector name, see projectors.get_projector
    collect_trace: bool = False     # record one trace row per iteration

    def __post_init__(self):
        # each rule is written so that NaN fails it
        for name, ok, rule in (
                ("epsilon_outer", 0.0 < self.epsilon_outer < np.inf, "positive and finite"),
                ("t_max_outer", isinstance(self.t_max_outer, Integral) and self.t_max_outer >= 1,
                 "an integer >= 1")):
            if not ok:
                raise ValueError(f"{name}: must be {rule}, got {getattr(self, name)!r}")
        try:
            get_projector(self.constraint)
        except ValueError as exc:
            raise ValueError(f"constraint: {exc}") from None


@dataclass
class TraceRow:
    """One outer iteration: the objective the stopping rule compared, and
    the design (phases, precoder, receiver scale) it was compared at. A
    stage's first row, the reference of its first comparison, replaces the
    previous stage's last one. The returned design is the last row's when
    the solve converged, else that of the last stage's lowest-objective
    row."""

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

    The loop runs the schedule in the module docstring: a gated solve runs
    a stage at power / START_POWER_DIVISOR, then one at the target power on
    the phases the first ended at; any other solve runs the target-power
    stage alone. Each stage ends when its stop rule fires, it stalls or
    cfg.t_max_outer phase updates of all stages together have run;
    `iterations` counts them, `converged` says the last stage's stop rule
    fired, and the clamp counts run on over all stages. A converged solve
    returns its last design. A solve that stalled in its last stage
    (converged false, iterations below cfg.t_max_outer) or reached the cap
    returns that stage's lowest-objective design. Either way the returned
    precoder is the precoder at `power` on the returned phases.

    The phase vector used for the precoder refresh, the trace, and the return
    value is always the projector image of the damped iterate, so feasibility
    is exact at every outer iteration. phase_system, prepare_system,
    effective_channel and VampStep are module names looked up at each call,
    never stored, so a wrapper bound to any of them sees every call.
    """
    cfg = cfg or OptimizerConfig()
    rng = rng or np.random.default_rng()
    projector = get_projector(cfg.constraint)
    upsilon = projector.initial_point(ch.dims[2], rng)
    m = ch.dims[1]
    err_floor = m * float(np.finfo(float).eps)
    h = effective_channel(ch, upsilon)
    schedule = (power,)
    # the gate, without a division, so that a degenerate power or noise
    # reaches the precoder's own refusal
    if noise_var > 0 and np.linalg.eigvalsh(h.conj().T @ h)[0] * power > GATE_RATIO * m * noise_var:
        schedule = (power / START_POWER_DIVISOR, power)
    diagnostics = VampDiagnostics()
    trace: list[TraceRow] = []
    t = 0   # phase updates of all stages so far, the index of the current row
    for stage_power in schedule:
        # the stage's first row, its first minimum and its incumbent, takes
        # the place of the previous stage's last row
        step = VampStep(projector, upsilon)
        step.diagnostics = diagnostics
        sol = mmse_precoder(h, stage_power, noise_var)
        best, stage_min, since_min, stop = (sol, upsilon), sol.error, 0, False
        if cfg.collect_trace:
            trace[t:] = [TraceRow(t, sol.error, upsilon, sol.F, sol.alpha)]
        for t in range(t + 1, cfg.t_max_outer + 1):
            err_prev = sol.error
            step(*prepare_system(*phase_system(ch, sol.F, sol.alpha)))
            upsilon = projector.g(step.x_damped)
            h = effective_channel(ch, upsilon)
            sol = mmse_precoder(h, stage_power, noise_var)
            stop = abs(sol.error - err_prev) < cfg.epsilon_outer * max(err_prev, err_floor)
            # a new minimum of the stage: below its last one by the stop rule's margin
            if sol.error < stage_min - cfg.epsilon_outer * max(stage_min, err_floor):
                stage_min, since_min = sol.error, 0
            else:
                since_min += 1
            if sol.error < best[0].error:
                best = sol, upsilon
            if cfg.collect_trace:
                trace[t:] = [TraceRow(t, sol.error, upsilon, sol.F, sol.alpha)]
            if stop or since_min == STALL_ITERATIONS:
                break

    # a last stage that stalled or reached the cap returns its incumbent
    if not stop:
        sol, upsilon = best
    return BeamformingSolution(upsilon, sol.F, sol.alpha, t, stop, trace, diagnostics)
