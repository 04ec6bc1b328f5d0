"""Brute-force and dense-form references used by the test suite.

Everything here is written against the defining formulas with its own
arithmetic (explicit inverses, loops, exhaustive grids) and deliberately does
not call the production implementations it cross-checks.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet
from .linalg import EconomySVD

ORACLE_DIM_CAP = 64
GRID_MAX_K = 3
GRID_BATCH = 8192       # phase-grid points evaluated per batched call
SEARCH_BATCH = 20_000   # random precoders drawn per batched call


def dense_lmmse(d: np.ndarray, z: np.ndarray, r: np.ndarray, gamma: float):
    """Dense linear estimator and its extrinsic message, unweighted like the
    production linear pass.

    x_bar = (D^H D + gamma I)^-1 (D^H z + gamma r),
    gamma_bar = N / Tr of that inverse; the extrinsic pair follows as
    (gamma_bar x_bar - gamma r)/(gamma_bar - gamma) and gamma_bar - gamma.
    Returns (x_bar, gamma_bar, r_ext, gamma_ext).
    """
    d = np.asarray(d, dtype=complex)
    n = d.shape[1]
    if n > ORACLE_DIM_CAP:
        raise ValueError(f"dense_lmmse: oracle capped at {ORACLE_DIM_CAP} unknowns")
    inv = np.linalg.inv(d.conj().T @ d + gamma * np.eye(n))
    x_bar = inv @ (d.conj().T @ z + gamma * r)
    gamma_bar = n / float(np.trace(inv).real)
    gamma_ext = gamma_bar - gamma
    r_ext = (gamma_bar * x_bar - gamma * r) / gamma_ext
    return x_bar, gamma_bar, r_ext, gamma_ext


def explicit_product_form(svd_a: EconomySVD, svd_b: EconomySVD) -> EconomySVD:
    """The product-form SVD of D = B * A written out from the factor SVDs:
    U = kron(U_b, U_a), omega = kron(omega_b, omega_a) * v_n, and Vh the
    column-wise Khatri-Rao product of Vh_b and Vh_a, row p = i*R_a + j being
    row i of Vh_b times row j of Vh_a, with each row divided by its norm v_n.

    Exact as a factorization of D when no v_n vanishes; U has orthonormal
    columns, Vh unit-norm rows that are not orthonormal in general. The
    EconomySVD only holds the three arrays.
    """
    vh_kr = np.einsum("ik,jk->ijk", svd_b.Vh, svd_a.Vh).reshape(-1, svd_a.Vh.shape[1])
    v_n = np.linalg.norm(vh_kr, axis=1)
    return EconomySVD(np.kron(svd_b.U, svd_a.U), np.kron(svd_b.omega, svd_a.omega) * v_n,
                      vh_kr / v_n[:, None])


def precoder_reference(h: np.ndarray, power: float, noise_var: float):
    """Literal transcription of the closed-form precoder and receiver scale,
    via an explicit inverse and the printed trace expressions."""
    h = np.asarray(h, dtype=complex)
    n, m = h.shape
    g = h @ h.conj().T + (m * noise_var / power) * np.eye(n)
    g_inv = np.linalg.inv(g)
    tr = float(np.trace(g_inv @ g_inv @ h @ h.conj().T).real)
    alpha = np.sqrt(1.0 / power) * np.sqrt(tr)
    f = np.sqrt(power) * (g_inv @ h) / np.sqrt(tr)
    return alpha, f


def sum_mse_reference(alpha: float, f: np.ndarray, h: np.ndarray,
                      noise_var: float) -> float:
    """Per-user expansion of the sum-MSE objective, summed with a loop."""
    m = f.shape[1]
    total = 0.0
    for i in range(m):
        row = h[:, i].conj()
        for j in range(m):
            val = alpha * row @ f[:, j] - (1.0 if i == j else 0.0)
            total += abs(val) ** 2
        total += alpha**2 * noise_var
    return total


def _phase_grid_error(ch: ChannelSet, grid: np.ndarray, power: float,
                      noise_var: float) -> np.ndarray:
    """Objective at every grid phase vector, precoder re-solved per point.

    grid is (G, K) of unit-modulus entries. Vectorized but still the literal
    formulas: batched explicit inverses, no shared code with the optimizer.
    """
    n, m, _ = ch.dims
    rows = np.einsum("km,gk,kn->gmn", ch.H_su.conj(), grid, ch.H_bs)
    rows = rows + ch.H_bu.conj().T[None, :, :]
    h = rows.conj().transpose(0, 2, 1)  # (G, N, M)
    gram = h @ h.conj().transpose(0, 2, 1) + (m * noise_var / power) * np.eye(n)
    g_inv = np.linalg.inv(gram)
    x = g_inv @ h
    tr = np.einsum("gnm,gnm->g", x, x.conj()).real
    alpha = np.sqrt(tr / power)
    f = x / alpha[:, None, None]
    fit = rows @ f * alpha[:, None, None] - np.eye(m)[None, :, :]
    return np.einsum("gmn,gmn->g", fit, fit.conj()).real + m * alpha**2 * noise_var


def grid_phase_search(ch: ChannelSet, power: float, noise_var: float,
                      points_per_phase: int = 64):
    """Exhaustive unimodular phase grid with the precoder re-solved per point.

    Returns (best phase vector, best objective). Guarded to K <= GRID_MAX_K
    and at most 1e6 grid points.
    """
    _, _, k = ch.dims
    if k > GRID_MAX_K:
        raise ValueError(f"grid_phase_search: exhaustive search needs K <= {GRID_MAX_K}, got {k}")
    if points_per_phase**k > 1_000_000:
        raise ValueError("grid_phase_search: grid budget exceeded")
    theta = 2.0 * np.pi * np.arange(points_per_phase) / points_per_phase
    axes = np.meshgrid(*([theta] * k), indexing="ij")
    grid = np.exp(1j * np.stack([ax.reshape(-1) for ax in axes], axis=1))
    best_val = np.inf
    best_ups = grid[0]
    for lo in range(0, grid.shape[0], GRID_BATCH):
        chunk = grid[lo:lo + GRID_BATCH]
        errs = _phase_grid_error(ch, chunk, power, noise_var)
        i = int(np.argmin(errs))
        if errs[i] < best_val:
            best_val = float(errs[i])
            best_ups = chunk[i]
    return best_ups, best_val


def grid_reactance(r_tilde: complex, points: int = 100_000) -> float:
    """Grid argmin of |r + 1/(1 + j chi)|^2 over chi in [-1e4, 1e4], with two
    local refinements of the winning cell."""
    r = complex(r_tilde)

    def objective(chi):
        return np.abs(r + 1.0 / (1.0 + 1j * chi)) ** 2

    grid = np.linspace(-1e4, 1e4, points)
    for _ in range(3):
        vals = objective(grid)
        i = int(np.argmin(vals))
        step = grid[1] - grid[0]
        grid = np.linspace(grid[i] - step, grid[i] + step, 1001)
    vals = objective(grid)
    return float(grid[int(np.argmin(vals))])


def random_precoder_search(h: np.ndarray, power: float, noise_var: float,
                           draws: int, rng: np.random.Generator) -> float:
    """Best sum-MSE over random power-normalized precoders, each paired with
    its own optimal receiver scale (1-D closed form in alpha)."""
    h = np.asarray(h, dtype=complex)
    n, m = h.shape
    best = np.inf
    for lo in range(0, draws, SEARCH_BATCH):
        count = min(SEARCH_BATCH, draws - lo)
        f = rng.standard_normal((count, n, m)) + 1j * rng.standard_normal((count, n, m))
        norms = np.sqrt(np.einsum("gnm,gnm->g", f, f.conj()).real)
        f *= (np.sqrt(power) / norms)[:, None, None]
        hf = np.einsum("nm,gnk->gmk", h.conj(), f)  # H^H F per draw
        cross = np.einsum("gmm->g", hf).real        # Re Tr(H^H F)
        quad = np.einsum("gmk,gmk->g", hf, hf.conj()).real + m * noise_var
        # E(alpha) = alpha^2 quad - 2 alpha cross + M, minimized in alpha
        alpha = np.clip(cross, 0.0, None) / quad
        val = (alpha**2 * quad - 2.0 * alpha * cross + m).min()
        best = min(best, float(val))
    return best


def precoder_objective(h: np.ndarray, f: np.ndarray, noise_var: float) -> float:
    """Sum-MSE of a given precoder with its own optimal scale, for equality
    checks against the search."""
    m = f.shape[1]
    hf = h.conj().T @ f
    cross = float(np.trace(hf).real)
    quad = float(np.linalg.norm(hf) ** 2) + m * noise_var
    alpha = max(cross, 0.0) / quad
    return alpha**2 * quad - 2.0 * alpha * cross + m
