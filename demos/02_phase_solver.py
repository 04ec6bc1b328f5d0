"""The message-passing phase solver on its own.

min ||A Diag(x) B^T - Z||_F^2 with every entry of x constrained to the unit
circle. With A = B = I the objective separates and the known minimizer is the
elementwise phase of diag(Z); the solver lands on it in a couple of passes.
The second system is a small reflector-style instance where the exhaustive
phase grid is still affordable, so the solver's objective can be compared
against the global grid optimum. Each trace row carries the pass's damped
iterate; the demo scores it with the objective itself.
"""
import numpy as np

from irsbeam.vamp import OptimizerConfig, run_vamp

rng = np.random.default_rng(1)

print("separable sanity check (A = B = I):")
diag = np.array([1 + 1j, -2.0, 0.5j, 1.5 - 0.5j])
res = run_vamp(np.eye(4), np.eye(4), np.diag(diag), rng=np.random.default_rng(0))
err = np.abs(res.x - diag / np.abs(diag)).max()
print(f"  converged in {res.iterations} passes, max phase error {err:.2e}")

print("\nsmall dense instance vs the exhaustive 64^3 phase grid:")
a = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
b = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
cfg = OptimizerConfig(epsilon_outer=1e-6, t_max_outer=500, collect_trace=True)
res = run_vamp(a, b, z, cfg, np.random.default_rng(0))
achieved = np.linalg.norm(a @ np.diag(res.x) @ b.T - z) ** 2

theta = np.exp(2j * np.pi * np.arange(64) / 64)
best = np.inf
for u1 in theta:
    for u2 in theta:
        grid = np.stack([np.full(64, u1), np.full(64, u2), theta], axis=1)
        vals = np.linalg.norm(np.einsum("mk,gk,kq->gmq", a, grid, b.T) - z,
                              axis=(1, 2)) ** 2
        best = min(best, float(vals.min()))
print(f"  solver objective {achieved:.6f} vs grid optimum {best:.6f} "
      f"(ratio {achieved / best:.4f})")

print("\nobjective of each pass's damped iterate (pass, value):")
for t, x, gamma_tilde, gamma_hat, clamped in res.trace[:8]:
    print(f"  {t:3d}  {np.linalg.norm(a @ np.diag(x) @ b.T - z) ** 2:.6f}")
