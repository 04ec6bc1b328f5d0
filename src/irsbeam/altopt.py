"""Alternating optimization of the transmit precoder and the phase shifts.

Each outer iteration refreshes the quadratic system the phase solver sees
(the precoder and receiver scale enter its matrices), runs one
message-passing step (vamp.vamp_step) on it, re-projects the damped iterate
onto the constraint set, and builds the effective channel of the new phases
once, for the closed-form precoder. The surface-user factor A = alpha H_su^H
changes only through the scalar alpha, so H_su^H is factored once per solve
and each iteration rescales its singular values (linalg.EconomySVD.scaled,
which hands over the |Vh|^2 the factored assembly reads).
The phase step hands prepare_system both factors as SVDs. With three users
or more (linalg.use_factors), it keeps its product form in the factor SVDs,
and the station-surface link is factored once per solve by its rank,
H_bs = Q_r R_r with r = rank(H_bs) (linalg.rank_factor): r is the number of
paths at most, 10 at paper scale against N = 32. Each iteration then factors
B = (H_bs F)^T through the small r x M core R_r F instead of the M x K B
(linalg.qr_core_svd), and builds the effective channel through the factor
too (precoding.effective_channel). With two users or fewer B is factored
directly and the effective channel formed from H_bs: that is the faster way
there, and it keeps the bits of the seeded sweeps.
Nothing else fixed is rebuilt per iteration either: the conjugate links come
from the channel set's cache (ChannelSet.H_su_H, H_bu_H), the identity from
linalg.identity, and the projector pass takes g and g' from one call.
The precoder returns the sum-MSE objective from its own M x M Gram matrix;
the loop stops when that objective changes by less than a relative
tolerance, or at the iteration cap. Like run_vamp, the loop takes a
vamp.OptimizerConfig and starts from VampState.start.

A traced solve runs the same loop and keeps each iteration's objective and
design in a TraceRow; it computes no sum-rate or NRMSE. metrics.sum_rate and
metrics.nrmse score a row's design, as they score the returned one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .linalg import EconomySVD, economy_svd, identity, qr_core_svd, rank_factor, use_factors
from .precoding import effective_channel, mmse_precoder
from .projectors import get_projector
from .vamp import OptimizerConfig, VampDiagnostics, VampState, prepare_system, vamp_step


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


def vamp_setup(ch: ChannelSet, svd_su: EconomySVD, bs_factor: tuple | None, f: np.ndarray,
               alpha: float):
    """The phase subproblem at the current precoder, as (SVD of A, SVD of B,
    Z) for A = alpha H_su^H, B = (H_bs F)^T and Z = I - alpha H_bu^H F, so
    that ||A Diag(upsilon) B^T - Z||_F^2 equals the phase part of the
    objective.

    A's SVD is svd_su, the SVD of H_su^H, scaled by alpha
    (EconomySVD.scaled). B is factored directly when bs_factor is None, and
    otherwise, for bs_factor = (Q_r, R_r) the rank factor of H_bs
    (linalg.rank_factor), through its core R_r F (linalg.qr_core_svd). H_bu^H
    is the set's cached ChannelSet.H_bu_H."""
    a = svd_su.scaled(alpha)
    if bs_factor is None:
        b = economy_svd((ch.H_bs @ f).T)
    else:
        q, r = bs_factor
        b = qr_core_svd(q, r @ f)
    z = identity(f.shape[1]) - alpha * ch.H_bu_H @ f
    return a, b, z


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
    _, m, k = ch.dims
    projector = get_projector(cfg.constraint)

    svd_su = economy_svd(ch.H_su_H)
    bs_factor = rank_factor(ch.H_bs) if use_factors(svd_su.rank, m) else None
    upsilon = projector.initial_point(k, rng)
    state = VampState.start(upsilon)
    diag = VampDiagnostics()
    trace: list[TraceRow] = []
    converged = False
    # iteration 0 evaluates the initial phases; each later one first updates them
    for t in range(cfg.t_max_outer + 1):
        if t > 0:
            svd, z_tilde = prepare_system(*vamp_setup(ch, svd_su, bs_factor, sol.F, sol.alpha))
            vamp_step(svd, z_tilde, state, projector, diag)
            upsilon = np.asarray(projector.g(state.x_damped))
        h = effective_channel(ch, upsilon, bs_factor)
        sol = mmse_precoder(h, power, noise_var)
        err = sol.error
        if cfg.collect_trace:
            trace.append(TraceRow(t, err, upsilon, sol.F, sol.alpha))
        if t > 0 and abs(err - err_prev) < cfg.epsilon_outer * err_prev:
            converged = True
            break
        err_prev = err

    return BeamformingSolution(upsilon, sol.F, sol.alpha, t, converged, trace, diag)
