"""Joint precoder and phase-shift optimization on one channel draw.

Alternates the closed-form sum-MMSE precoder with one message-passing pass on
the phase subproblem per outer iteration. Compares the two reflector models
(ideal unit-modulus vs reactive load) against unoptimized random phases on
the same channel. Each trace row holds the iteration's objective and design;
metrics.sum_rate scores a row's design as it scores the returned one. Last,
the loop's stop settings: the same solve at the default relative tolerance
and iteration cap, then at a tighter tolerance under a higher cap.
"""
import numpy as np

from irsbeam.altopt import OptimizerConfig, joint_optimize
from irsbeam.channel import SystemDims, sample_channel_set
from irsbeam.harness import dbm_to_watts, fixed_phase_design
from irsbeam.metrics import sum_rate
from irsbeam.projectors import UNIMODULAR

dims = SystemDims(N=8, M=2, K=64)
power = dbm_to_watts(30.0)       # 1 W
noise = dbm_to_watts(-100.0)     # 1e-13 W
ch = sample_channel_set(np.random.default_rng(7), dims, scenario="B")

print(f"channel: N={dims.N} antennas, M={dims.M} users, K={dims.K} reflectors")
for constraint in ("unimodular", "reactive"):
    sol = joint_optimize(ch, power, noise,
                         OptimizerConfig(constraint=constraint, collect_trace=True),
                         np.random.default_rng(11))
    rate = sum_rate(ch, sol.upsilon, sol.F, noise)
    print(f"\n{constraint}: {sol.iterations} outer iterations "
          f"(converged={sol.converged})")
    print(f"  sum-rate {rate:.2f} bits/s/Hz, final fit error {sol.trace[-1].error:.4f}")
    print(f"  |upsilon| range [{np.abs(sol.upsilon).min():.3f}, "
          f"{np.abs(sol.upsilon).max():.3f}], transmit power "
          f"{np.linalg.norm(sol.F) ** 2:.6f} W")
    print("  error trace:", " ".join(f"{row.error:.3f}" for row in sol.trace[:10]),
          "...")
    print("  sum-rate trace:", " ".join(f"{sum_rate(ch, row.upsilon, row.F, noise):.2f}"
                                        for row in sol.trace[:10]), "...")

base = fixed_phase_design(ch, UNIMODULAR.initial_point(dims.K, np.random.default_rng(11)),
                          power, noise)
print(f"\nrandom phases, same channel: sum-rate "
      f"{sum_rate(ch, base.upsilon, base.F, noise):.2f} bits/s/Hz")

print("\nstop settings (unimodular, same start):")
for cfg in (OptimizerConfig(), OptimizerConfig(epsilon_outer=1e-6, t_max_outer=500)):
    sol = joint_optimize(ch, power, noise, cfg, np.random.default_rng(11))
    print(f"  tolerance {cfg.epsilon_outer:.0e}, cap {cfg.t_max_outer}: "
          f"{sol.iterations} iterations (converged={sol.converged}), sum-rate "
          f"{sum_rate(ch, sol.upsilon, sol.F, noise):.4f} bits/s/Hz")
