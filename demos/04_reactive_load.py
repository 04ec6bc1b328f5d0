"""Geometry of the reactive-load reflector model.

A reflector terminated by a tunable reactance chi reflects with coefficient
-1/(1 + j chi): a circle of radius 1/2 centered at -1/2, so the phase is
confined to [-pi/2, pi/2] and any phase shift away from pi costs amplitude.
The projection of a point onto that circle is its nearest point in closed
form; the demo reads the reactance of that point, chi = -Im(1/v), against a
brute-force reactance grid and shows the phase-dependent attenuation.
"""
import numpy as np

from irsbeam.oracles import grid_reactance
from irsbeam.projectors import REACTIVE

targets = [1j, 1 + 1j, -0.8 + 0.3j, 0.4 - 1.2j]
print("reactance of the nearest circle point vs 1e5-point grid search:")
for r in targets:
    v = REACTIVE.g(r)
    chi = -(1 / v).imag
    chi_grid = grid_reactance(r, points=100_000)
    print(f"  target {r!s:>12}: chi {chi:9.4f} (grid {chi_grid:9.4f}), "
          f"projected {v:.4f}, |v| {abs(v):.4f}")

print("\namplitude attenuation across the admissible phase range:")
for phase_deg in (0, 30, 60, 85):
    # a point on the circle at a given phase away from the chi = 0 point
    chi = np.tan(np.deg2rad(phase_deg))
    v = -1 / (1 + 1j * chi)
    print(f"  phase {np.angle(v, deg=True) - 180:7.1f} deg off pi: |v| = {abs(v):.4f}")

rng = np.random.default_rng(3)
r = rng.standard_normal(5) + 1j * rng.standard_normal(5)
h = 1e-6
d_re = (REACTIVE.g(r + h) - REACTIVE.g(r - h)) / (2 * h)
d_im = (REACTIVE.g(r + 1j * h) - REACTIVE.g(r - 1j * h)) / (2 * h)
fd = np.abs(0.5 * (d_re - 1j * d_im))
print("\nclosed-form derivative vs central differences:")
for rv, an, num in zip(r, REACTIVE.g_prime(r), fd):
    print(f"  r = {rv:18.4f}: {an:.6f} vs {num:.6f}")
