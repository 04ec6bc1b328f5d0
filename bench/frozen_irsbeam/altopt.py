"""Alternating optimization of the transmit precoder and the phase shifts.

Each outer iteration refreshes the quadratic system the phase solver sees
(the precoder and receiver scale enter its matrices), runs one or more
message-passing passes on it, re-projects the damped iterate onto the
constraint set, and re-solves the precoder in closed form for the new
phases. The loop stops when the sum-MSE objective changes by less than a
relative tolerance, or at the iteration cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .metrics import fit_error, nrmse, sum_rate
from .precoding import effective_channel, mmse_precoder
from .projectors import Projector, get_projector
from .vamp import (ExtrinsicMessage, VampConfig, VampDiagnostics, _LoopState,
                   _vamp_pass, prepare_system)


@dataclass
class OptimizerConfig:
    vamp: VampConfig = field(default_factory=VampConfig)
    epsilon_outer: float = 1e-3
    t_max_outer: int = 100
    constraint: str = "unimodular"
    init_mode: str = "default"      # "default": random phases / flat reactance
    inner_iters: int = 1            # message-passing passes per outer iteration
    carryover: str = "extrinsic"    # "extrinsic" | "restart"
    collect_trace: bool = True

    def __post_init__(self):
        if self.epsilon_outer <= 0 or self.t_max_outer < 1:
            raise ValueError("OptimizerConfig: epsilon_outer > 0 and t_max_outer >= 1 required")
        if self.inner_iters < 1:
            raise ValueError("OptimizerConfig: inner_iters >= 1 required")
        if self.carryover not in ("extrinsic", "restart"):
            raise ValueError(f"OptimizerConfig: unknown carryover {self.carryover!r}")


@dataclass
class TraceRow:
    iteration: int
    error: float
    sum_rate: float
    nrmse: float


@dataclass
class BeamformingSolution:
    upsilon: np.ndarray
    F: np.ndarray
    alpha: float
    iterations: int
    converged: bool
    trace: list[TraceRow]
    diagnostics: VampDiagnostics
    wall_time_s: float = 0.0


def objective_error(alpha: float, upsilon: np.ndarray, f: np.ndarray,
                    ch: ChannelSet, noise_var: float) -> float:
    """Sum-MSE objective the loop tracks; identical to metrics.fit_error."""
    return fit_error(alpha, upsilon, f, ch, noise_var)


def vamp_setup(ch: ChannelSet, f: np.ndarray, alpha: float):
    """Matrices (A, B, Z) of the phase subproblem at the current precoder:
    A = alpha H_su^H, B = (H_bs F)^T, Z = I - alpha H_bu^H F, so that
    ||A Diag(upsilon) B^T - Z||_F^2 equals the phase part of the objective."""
    a = alpha * ch.H_su.conj().T
    b = (ch.H_bs @ f).T
    m = f.shape[1]
    z = np.eye(m) - alpha * ch.H_bu.conj().T @ f
    return a, b, z


def initial_phases(projector: Projector, k: int, rng: np.random.Generator,
                   init_mode: str = "default") -> np.ndarray:
    if init_mode == "default":
        return projector.initial_point(k, rng)
    if init_mode == "flat":
        return projector.g(np.ones(k, dtype=complex), 1.0)
    raise ValueError(f"initial_phases: unknown init_mode {init_mode!r}")


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
    ch.validate()
    n, m, k = ch.dims
    projector = get_projector(cfg.constraint)
    vcfg = cfg.vamp

    start = time.perf_counter()
    upsilon = initial_phases(projector, k, rng, cfg.init_mode)
    sol = mmse_precoder(effective_channel(ch, upsilon), power, noise_var)
    err_prev = objective_error(sol.alpha, upsilon, sol.F, ch, noise_var)
    diag = VampDiagnostics()
    trace: list[TraceRow] = []
    if cfg.collect_trace:
        trace.append(TraceRow(0, err_prev, sum_rate(ch, upsilon, sol.F, noise_var),
                              nrmse(sol.alpha, upsilon, sol.F, ch, noise_var)))

    state = _LoopState(ExtrinsicMessage(upsilon.copy(), max(vcfg.gamma_0, vcfg.gamma_floor)),
                       upsilon.copy())
    converged = False
    t = 0
    for t in range(1, cfg.t_max_outer + 1):
        a, b, z = vamp_setup(ch, sol.F, sol.alpha)
        svd, z_tilde = prepare_system(a, b, z)
        if cfg.carryover == "restart" and t > 1:
            state.msg = ExtrinsicMessage(upsilon.copy(), max(vcfg.gamma_0, vcfg.gamma_floor))
        for _ in range(cfg.inner_iters):
            _vamp_pass(svd, z_tilde, state, projector, vcfg, k, diag)
        upsilon = np.asarray(projector.g(state.x_damped, state.gamma_tilde_prev or 1.0))
        sol = mmse_precoder(effective_channel(ch, upsilon), power, noise_var)
        err = objective_error(sol.alpha, upsilon, sol.F, ch, noise_var)
        if cfg.collect_trace:
            trace.append(TraceRow(t, err, sum_rate(ch, upsilon, sol.F, noise_var),
                                  nrmse(sol.alpha, upsilon, sol.F, ch, noise_var)))
        if abs(err - err_prev) < cfg.epsilon_outer * err_prev:
            err_prev = err
            converged = True
            break
        err_prev = err

    return BeamformingSolution(upsilon, sol.F, sol.alpha, t, converged, trace, diag,
                               wall_time_s=time.perf_counter() - start)
