"""The message-passing step on its own.

min ||A Diag(x) B^T - Z||_F^2 with every entry of x constrained to the unit
circle, solved by calling the step the joint optimizer drives (VampStep) on
the system prepare_system builds from the SVDs of A and B, in a plain loop of
fixed length. With A = B = I the objective separates and the known minimizer
is the elementwise phase of diag(Z); the step lands on it in a couple of
passes. The second system is a small reflector-style instance where the
exhaustive phase grid is still affordable, so the step's objective can be
compared against the global grid optimum. Each pass is scored at the
projector image of its damped iterate, the point the joint optimizer takes.
"""
import numpy as np

from irsbeam.linalg import economy_svd
from irsbeam.projectors import UNIMODULAR
from irsbeam.vamp import VampStep, prepare_system


def solve(a, b, z, passes, rng):
    """The feasible iterate after each of `passes` steps from a random start."""
    svd, z_tilde = prepare_system(economy_svd(a), economy_svd(b), z)
    step = VampStep(UNIMODULAR, UNIMODULAR.initial_point(a.shape[1], rng))
    iterates = []
    for _ in range(passes):
        step(svd, z_tilde)
        iterates.append(UNIMODULAR.g(step.x_damped))
    return iterates


def objective(a, b, z, x):
    return np.linalg.norm(a @ np.diag(x) @ b.T - z) ** 2


rng = np.random.default_rng(1)

print("separable sanity check (A = B = I), max phase error after each pass:")
diag = np.array([1 + 1j, -2.0, 0.5j, 1.5 - 0.5j])
eye = np.eye(4, dtype=complex)
for t, x in enumerate(solve(eye, eye, np.diag(diag), 4, np.random.default_rng(0)), start=1):
    print(f"  {t:3d}  {np.abs(x - diag / np.abs(diag)).max():.2e}")

print("\nsmall dense instance vs the exhaustive 64^3 phase grid:")
a = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
b = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
iterates = solve(a, b, z, 200, np.random.default_rng(0))
achieved = objective(a, b, z, iterates[-1])

theta = np.exp(2j * np.pi * np.arange(64) / 64)
best = np.inf
for u1 in theta:
    for u2 in theta:
        grid = np.stack([np.full(64, u1), np.full(64, u2), theta], axis=1)
        vals = np.linalg.norm(np.einsum("mk,gk,kq->gmq", a, grid, b.T) - z,
                              axis=(1, 2)) ** 2
        best = min(best, float(vals.min()))
print(f"  objective after {len(iterates)} passes {achieved:.6f} vs grid optimum "
      f"{best:.6f} (ratio {achieved / best:.4f})")

print("\nobjective of each pass's feasible iterate (pass, value):")
for t, x in enumerate(iterates[:8], start=1):
    print(f"  {t:3d}  {objective(a, b, z, x):.6f}")
