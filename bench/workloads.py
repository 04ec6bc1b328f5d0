"""The three benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the workload seed during set-up, then runs
numbered units of work one after another in one process: unit `i` is a pure
function of (seed, i) and attempts `unit_trials` trials. A timed phase runs
at least `min_units` units. The reference block is a fixed set of units
drawn from REFERENCE_SEED, independent of the workload seed; the quality
metrics are computed on it, so they repeat exactly on every run and any
change to the numerical results shows in them. Records are
harness.TrialRecord rows, so the checks and the quality metrics treat every
workload alike. All calls go through the public API of `pkg`: the irsbeam
under test, or the frozen copy that run.py times beside it.

`ANCHORS` holds, per workload, the frozen copy's trials per second, median
unit latency and set-up time on the host the baseline was taken on; run.py
reports the code under test at that host speed (see README.md).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

REFERENCE_SEED = 7
NOISE_W = 1e-13         # -100 dBm

# (trials_per_s, latency_ms_p50, setup_s) of the frozen copy: its raw
# medians over ten runs, seeds 1001-1010 (baseline.json)
ANCHORS = {
    "desk-sweep": (256.96, 694.32, 0.17492),
    "paper-solve": (13.011, 84.712, 0.39323),
    "reactive-csi": (70.905, 186.38, 0.17400),
}


class SweepWorkload:
    """Repeated `run_sweep` calls on one spec shape; unit i uses its own
    base_seed, so every unit draws fresh channels."""

    reference_units = 1
    min_units = 1

    def __init__(self, pkg, name: str, spec, reference_trials: int, seed: int, unit_s: float):
        self.harness = pkg.harness
        self.name = name
        self.spec = replace(spec, record_timing=False)
        self.reference_spec = replace(self.spec, trials=reference_trials)
        self.seed = seed
        self.unit_s = unit_s
        self.t_max_outer = spec.t_max_outer
        self.unit_trials = self._expected(self.spec)
        self.reference_trials = self._expected(self.reference_spec)
        # channels one unit draws: one per (dims, trial)
        self.unit_channels = len(spec.n_bs) * len(spec.n_users) * len(spec.n_irs) * spec.trials

    def warm_up(self) -> None:
        one = replace(self.spec, n_irs=self.spec.n_irs[:1], power_dbm=self.spec.power_dbm[:1],
                      kappa=self.spec.kappa[-1:], schemes=self.spec.schemes[:1], trials=1,
                      base_seed=self.seed)
        self.harness.run_sweep(one)

    @staticmethod
    def _expected(spec) -> int:
        return (len(spec.n_bs) * len(spec.n_users) * len(spec.n_irs) * len(spec.power_dbm)
                * len(spec.kappa) * len(spec.schemes) * spec.trials)

    def unit(self, i: int) -> list:
        records, _ = self.harness.run_sweep(
            replace(self.spec, base_seed=self.seed * 1_000_003 + i))
        return records

    def reference_unit(self, j: int) -> list:
        records, _ = self.harness.run_sweep(replace(self.reference_spec,
                                                    base_seed=REFERENCE_SEED + j))
        return records


class SolveWorkload:
    """Repeated `joint_optimize` at paper scale on a fixed seeded channel set.

    The channel set is built during set-up; unit i solves channel i mod
    len(set) from its own optimizer stream, then evaluates sum-rate and
    NRMSE, as a user checking one design would.
    """

    name = "paper-solve"
    power_w = 1.0       # 30 dBm
    n_channels = 64
    reference_units = 24
    min_units = 110     # so that at least ten latency samples lie beyond p90
    unit_s = 0.07
    unit_trials = 1
    reference_trials = 1
    unit_channels = 0   # the channel set is drawn during set-up

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.dims = pkg.SystemDims(N=32, M=4, K=256)
        self.seed = seed
        self.cfg = pkg.OptimizerConfig(constraint="unimodular", collect_trace=False)
        self.t_max_outer = self.cfg.t_max_outer
        self.channels = self._channels(seed, self.n_channels)
        self._reference = None

    def _channels(self, seed: int, count: int):
        return [self.pkg.sample_channel_set(np.random.default_rng([seed, 11, c]), self.dims,
                                            scenario="B")
                for c in range(count)]

    def warm_up(self) -> None:
        self._solve(self.channels[0], np.random.default_rng([self.seed, 17, 1 << 30]), -1)

    def _solve(self, ch, rng, index: int) -> list:
        pkg = self.pkg
        sol = pkg.altopt.joint_optimize(ch, self.power_w, NOISE_W, self.cfg, rng)
        rate = pkg.sum_rate(ch, sol.upsilon, sol.F, NOISE_W)
        err = pkg.nrmse(sol.alpha, sol.upsilon, sol.F, ch, NOISE_W)
        n, m, k = ch.dims
        return [pkg.harness.TrialRecord("vamp_unimodular", index, n, m, k, 30.0, 1.0, rate, err,
                                    sol.iterations, 0.0)]

    def unit(self, i: int) -> list:
        return self._solve(self.channels[i % self.n_channels],
                           np.random.default_rng([self.seed, 17, i]), i)

    def reference_unit(self, j: int) -> list:
        if self._reference is None:
            self._reference = self._channels(REFERENCE_SEED, self.reference_units)
        return self._solve(self._reference[j], np.random.default_rng([REFERENCE_SEED, 17, j]), j)


def desk_sweep(pkg, seed: int) -> SweepWorkload:
    """desk_spec() shape (N=8, M=2, K in {16, 36, 64}, 10/20/30 dBm, four
    schemes) at 5 trials per unit (180 trials), so that each unit runs on
    both packages within about a second."""
    spec = replace(pkg.harness.desk_spec(), trials=5)
    return SweepWorkload(pkg, "desk-sweep", spec, reference_trials=20, seed=seed, unit_s=0.65)


def reactive_csi(pkg, seed: int) -> SweepWorkload:
    """N=8, M=2, K=256, 20 dBm, reactive loads, kappa in {0.9, 0.99, 1.0}, at
    5 trials per unit, so that a run holds many units to take the median of."""
    spec = pkg.harness.ExperimentSpec(
        scenario="B", n_bs=[8], n_users=[2], n_irs=[256], power_dbm=[20.0],
        kappa=[0.9, 0.99, 1.0], schemes=["vamp_reactive"], trials=5)
    return SweepWorkload(pkg, "reactive-csi", spec, reference_trials=40, seed=seed,
                         unit_s=0.25)


WORKLOADS = {
    "desk-sweep": desk_sweep,
    "paper-solve": SolveWorkload,
    "reactive-csi": reactive_csi,
}
