"""Message-passing solver for separably constrained quadratic matrix fitting.

Minimizes ||A Diag(x) B^T - Z||_F^2 over x subject to a per-entry constraint,
by alternating an SVD-form linear estimator pass on the equivalent system
D x = vec(Z), D = B * A (column-wise Khatri-Rao), with a separable projector
pass. The two passes exchange extrinsic messages (mean vector, scalar
precision). Damping blends successive precision and iterate values to keep
the fixed-point iteration from oscillating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (EconomySVD, StructuredSVD, economy_svd, khatri_rao_columns,
                     kron_transform, structured_svd)
from .projectors import Projector


@dataclass
class ExtrinsicMessage:
    """Mean vector and scalar precision one module hands to the other."""

    r: np.ndarray
    gamma: float


@dataclass
class VampConfig:
    gamma_w: float = 1.0        # quadratic-term weight in the linear pass
    epsilon: float = 1e-3       # relative squared-change stopping tolerance
    t_max: int = 100
    rho: float = 0.9            # damping factor in (0, 1]
    gamma_floor: float = 1e-11  # clamp for nonpositive precisions
    gamma_0: float = 0.1        # initial message precision

    def __post_init__(self):
        if self.gamma_w <= 0 or self.epsilon <= 0 or self.t_max < 1:
            raise ValueError("VampConfig: gamma_w, epsilon must be positive, t_max >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"VampConfig: rho must lie in (0, 1], got {self.rho}")
        if self.gamma_floor <= 0 or self.gamma_0 < 0:
            raise ValueError("VampConfig: gamma_floor must be positive, gamma_0 >= 0")


@dataclass
class VampDiagnostics:
    """Counts of precision clamps taken during a run; never fatal."""

    lmmse_clamps: int = 0
    projector_clamps: int = 0

    @property
    def clamped(self) -> bool:
        return self.lmmse_clamps > 0 or self.projector_clamps > 0


@dataclass
class VampResult:
    x: np.ndarray
    iterations: int
    converged: bool
    diagnostics: VampDiagnostics
    trace: list = field(default_factory=list)


def damp_update(current, previous, rho: float):
    """Convex blend rho*current + (1-rho)*previous, elementwise for vectors."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"damp_update: rho must lie in (0, 1], got {rho}")
    return rho * current + (1.0 - rho) * previous


def prepare_system(a: np.ndarray, b: np.ndarray, z: np.ndarray,
                   rank_tol: float = 1e-12):
    """SVD triple and weighted observation for D = B * A against vec(Z).

    Uses the product-form SVD assembled from the factor SVDs so D is never
    formed, except when the component count R_a*R_b would exceed the unknown
    count K: there the product form stops being a usable surrogate for an SVD
    (the precision update needs K/R >= 1) and forming the small dense D is
    cheaper anyway.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if z.shape != (a.shape[0], b.shape[0]):
        raise ValueError(f"prepare_system: Z is {z.shape}, expected {(a.shape[0], b.shape[0])}")
    k = a.shape[1]
    svd_a = economy_svd(a, rank_tol)
    svd_b = economy_svd(b, rank_tol)
    if svd_a.rank * svd_b.rank > k:
        svd = economy_svd(khatri_rao_columns(b, a), rank_tol)
        if svd.rank == 0:
            raise ValueError("prepare_system: zero system (A or B vanishes)")
        z_tilde = (svd.U.conj().T @ z.flatten(order="F")) / svd.omega
        return svd, z_tilde
    svd = structured_svd(svd_a, svd_b, rank_tol=rank_tol)
    if svd.rank == 0:
        raise ValueError("prepare_system: zero system (A or B vanishes)")
    z_tilde = kron_transform(svd.U_a, svd.U_b, z)[svd.kept] / svd.omega
    return svd, z_tilde


def lmmse_extrinsic(svd: EconomySVD | StructuredSVD, z_tilde: np.ndarray,
                    msg: ExtrinsicMessage, cfg: VampConfig, dim_x: int,
                    diag: VampDiagnostics | None = None) -> ExtrinsicMessage:
    """Extrinsic output of the linear pass, computed in SVD form.

    d = gamma_w*omega^2 / (gamma_w*omega^2 + gamma);
    r_out = r + (dim_x/R) V Diag(d/<d>) (z_tilde - V^H r);
    gamma_out = gamma*<d> / (dim_x/R - <d>), clamped to gamma_floor when the
    denominator vanishes or goes negative (possible when R > dim_x).
    """
    omega, vh = svd.omega, svd.Vh
    rank = omega.size
    if z_tilde.shape != (rank,):
        raise ValueError(f"lmmse_extrinsic: z_tilde has length {z_tilde.size}, rank is {rank}")
    if msg.r.shape != (dim_x,):
        raise ValueError(f"lmmse_extrinsic: message mean has length {msg.r.size}, expected {dim_x}")
    d = cfg.gamma_w * omega**2 / (cfg.gamma_w * omega**2 + msg.gamma)
    d_mean = float(np.mean(d))
    ratio = dim_x / rank
    r_out = msg.r + ratio * (vh.conj().T @ ((d / d_mean) * (z_tilde - vh @ msg.r)))
    denom = ratio - d_mean
    if denom <= 0 or not np.isfinite(denom):
        gamma_out = cfg.gamma_floor
        if diag is not None:
            diag.lmmse_clamps += 1
    else:
        gamma_out = msg.gamma * d_mean / denom
        if gamma_out < cfg.gamma_floor:
            gamma_out = cfg.gamma_floor
            if diag is not None:
                diag.lmmse_clamps += 1
    return ExtrinsicMessage(r_out, gamma_out)


def _projector_pass(projector: Projector, r_tilde: np.ndarray, gamma_tilde: float,
                    gamma_floor: float, x_prev: np.ndarray | None, rho: float,
                    diag: VampDiagnostics | None):
    """One projector pass with optional damping of the iterate.

    Returns (x_damped, gamma_hat, extrinsic message). The extrinsic mean uses
    the damped iterate; when the extrinsic precision would be nonpositive it
    is clamped to gamma_floor and the mean falls back to the iterate itself
    (the closed-form mean divided by the clamped precision would blow up).
    """
    x_raw = np.asarray(projector.g(r_tilde, gamma_tilde))
    x_hat = damp_update(x_raw, x_prev, rho) if x_prev is not None else x_raw
    gamma_hat = float(np.mean(projector.g_prime(r_tilde, gamma_tilde))) / gamma_tilde
    gamma_out = gamma_hat - gamma_tilde
    if gamma_out <= 0 or not np.isfinite(gamma_out):
        gamma_out = gamma_floor
        r_out = x_hat.copy()
        if diag is not None:
            diag.projector_clamps += 1
    else:
        r_out = (gamma_hat * x_hat - gamma_tilde * r_tilde) / gamma_out
    return x_hat, gamma_hat, ExtrinsicMessage(r_out, gamma_out)


def project_step(projector: Projector, r_tilde: np.ndarray, gamma_tilde: float,
                 gamma_floor: float = 1e-11,
                 diag: VampDiagnostics | None = None):
    """Undamped projector pass: x = g(r_tilde), gamma_hat = <g'>/gamma_tilde,
    extrinsic precision gamma_hat - gamma_tilde (clamped positive)."""
    if gamma_tilde <= 0:
        raise ValueError(f"project_step: gamma_tilde must be positive, got {gamma_tilde}")
    return _projector_pass(projector, np.asarray(r_tilde, dtype=complex),
                           float(gamma_tilde), gamma_floor, None, 1.0, diag)


@dataclass
class _LoopState:
    """Message and damping memory carried between solver passes."""

    msg: ExtrinsicMessage
    x_damped: np.ndarray
    gamma_tilde_prev: float | None = None
    passes: int = 0


def _vamp_pass(svd, z_tilde, state: _LoopState, projector: Projector,
               cfg: VampConfig, dim_x: int, diag: VampDiagnostics):
    """One linear-estimator plus projector pass with damping for passes > 1."""
    tilde = lmmse_extrinsic(svd, z_tilde, state.msg, cfg, dim_x, diag)
    gamma_tilde = tilde.gamma
    if state.passes > 0 and state.gamma_tilde_prev is not None:
        gamma_tilde = max(damp_update(gamma_tilde, state.gamma_tilde_prev, cfg.rho),
                          cfg.gamma_floor)
    x_prev = state.x_damped if state.passes > 0 else None
    x_hat, gamma_hat, msg = _projector_pass(projector, tilde.r, gamma_tilde,
                                            cfg.gamma_floor, x_prev, cfg.rho, diag)
    state.msg = msg
    state.x_damped = x_hat
    state.gamma_tilde_prev = gamma_tilde
    state.passes += 1
    return gamma_tilde, gamma_hat


def run_vamp(a: np.ndarray, b: np.ndarray, z: np.ndarray, projector: Projector,
             cfg: VampConfig | None = None, init: ExtrinsicMessage | None = None,
             rng: np.random.Generator | None = None,
             collect_trace: bool = False) -> VampResult:
    """Solve min ||A Diag(x) B^T - Z||_F^2 under the projector's constraint.

    Iterates until the squared iterate change falls under epsilon times the
    squared iterate norm, or t_max passes. The returned x is re-projected
    through g, so every entry lies exactly in the constraint set even though
    damped intermediate iterates need not.
    """
    cfg = cfg or VampConfig()
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    z = np.asarray(z, dtype=complex)
    dim_x = a.shape[1]
    svd, z_tilde = prepare_system(a, b, z)
    if init is None:
        x0 = projector.initial_point(dim_x, rng or np.random.default_rng())
        init = ExtrinsicMessage(x0.copy(), cfg.gamma_0)
    state = _LoopState(ExtrinsicMessage(init.r.copy(), max(init.gamma, cfg.gamma_floor)),
                       init.r.copy())
    diag = VampDiagnostics()
    trace: list = []
    converged = False
    t = 0
    for t in range(1, cfg.t_max + 1):
        x_before = state.x_damped.copy()
        gamma_tilde, gamma_hat = _vamp_pass(svd, z_tilde, state, projector, cfg,
                                            dim_x, diag)
        if collect_trace:
            obj = float(np.linalg.norm(a @ (state.x_damped[:, None] * b.T) - z) ** 2)
            trace.append((t, obj, gamma_tilde, gamma_hat, diag.clamped))
        delta = float(np.linalg.norm(state.x_damped - x_before) ** 2)
        if t > 1 and delta <= cfg.epsilon * float(np.linalg.norm(x_before) ** 2):
            converged = True
            break
    x_out = np.asarray(projector.g(state.x_damped, state.gamma_tilde_prev or 1.0))
    return VampResult(x_out, t, converged, diag, trace)


def trace_to_csv(trace, path) -> None:
    """Write a per-pass trace as CSV: iter, objective, gamma_tilde, gamma_hat, clamped."""
    with open(path, "w") as fh:
        fh.write("iter,objective,gamma_tilde,gamma_hat,clamped\n")
        for row in trace:
            t, obj, gt, gh, clamped = row
            fh.write(f"{t},{obj!r},{gt!r},{gh!r},{int(clamped)}\n")
