"""Metamorphic relations of the production solve at paper scale.

No oracle reaches N = 32, M = 4, K = 256, but the model has exact
symmetries, and the solve must keep them on any kernel:
- doubling H_bs and H_bu and quadrupling the noise scales every quantity of
  the path by a power of two, so the phases and the precoder keep their
  bits and the receiver scale halves exactly (the continuation gate compares
  two sides that both scale by 4);
- a unitary rotation of the station antennas, H_bs Q and Q^H H_bu, rotates
  the effective channel and the precoder and leaves the sum-rate;
- a permutation of the users permutes the columns of H_su and H_bu and
  leaves the sum-rate.

The last two change rounding, so they pin every iteration count and the
sum-rate to rounding. Each runs for both constraints, on a channel where
the continuation gate fires and on one where it does not, at 30 dBm and
-100 dBm noise, as the paper-solve benchmark solves.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from irsbeam.altopt import START_POWER_DIVISOR, OptimizerConfig, joint_optimize
from irsbeam.channel import SystemDims, complex_normal, sample_channel_set
from irsbeam.metrics import sum_rate

DIMS = SystemDims(32, 4, 256)
POWER, NOISE = 1.0, 1e-13
# (constraint, channel index, whether the gate fires on it)
CASES = [pytest.param(constraint, c, gated, id=f"{constraint}-{'gated' if gated else 'cold'}")
         for constraint in ("unimodular", "reactive") for c, gated in ((6, True), (2, False))]


@lru_cache(maxsize=None)
def channel(c):
    return sample_channel_set(np.random.default_rng([7, 11, c]), DIMS, scenario="B")


def solve(ch, constraint, c, noise=NOISE, trace=False):
    return joint_optimize(ch, POWER, noise,
                          OptimizerConfig(constraint=constraint, collect_trace=trace),
                          np.random.default_rng([7, 17, c]))


@lru_cache(maxsize=None)
def reference(constraint, c, gated):
    """The solve of channel c, after checking that the gate takes the
    decision the case names: a gated solve's first row is at a tenth of the
    power."""
    traced = solve(channel(c), constraint, c, trace=True)
    first = float(np.linalg.norm(traced.trace[0].F) ** 2)
    assert first == pytest.approx(POWER / START_POWER_DIVISOR if gated else POWER, rel=1e-12)
    return traced


def assert_same_run(got, want):
    assert (got.iterations, got.converged, got.diagnostics) == \
        (want.iterations, want.converged, want.diagnostics)


@pytest.mark.parametrize("constraint, c, gated", CASES)
def test_power_of_two_scaling_keeps_every_bit(constraint, c, gated):
    want = reference(constraint, c, gated)
    ch = channel(c)
    got = solve(replace(ch, H_bs=2 * ch.H_bs, H_bu=2 * ch.H_bu), constraint, c, noise=4 * NOISE)
    assert_same_run(got, want)
    assert got.upsilon.tobytes() == want.upsilon.tobytes()
    assert got.F.tobytes() == want.F.tobytes()
    assert got.alpha == want.alpha / 2


@pytest.mark.parametrize("constraint, c, gated", CASES)
def test_station_rotation_keeps_every_iteration_count(constraint, c, gated):
    want = reference(constraint, c, gated)
    ch = channel(c)
    q, _ = np.linalg.qr(complex_normal(np.random.default_rng([c, 23]), DIMS.N, DIMS.N))
    rotated = replace(ch, H_bs=ch.H_bs @ q, H_bu=q.conj().T @ ch.H_bu)
    got = solve(rotated, constraint, c)
    assert_same_run(got, want)
    np.testing.assert_allclose(sum_rate(rotated, got.upsilon, got.F, NOISE),
                               sum_rate(ch, want.upsilon, want.F, NOISE), rtol=1e-12)


@pytest.mark.parametrize("constraint, c, gated", CASES)
def test_user_permutation_keeps_every_iteration_count(constraint, c, gated):
    want = reference(constraint, c, gated)
    ch = channel(c)
    perm = np.random.default_rng([c, 29]).permutation(DIMS.M)
    permuted = replace(ch, H_su=ch.H_su[:, perm], H_bu=ch.H_bu[:, perm],
                       d_users=ch.d_users[perm], d_irs_users=ch.d_irs_users[perm])
    got = solve(permuted, constraint, c)
    assert_same_run(got, want)
    np.testing.assert_allclose(sum_rate(permuted, got.upsilon, got.F, NOISE),
                               sum_rate(ch, want.upsilon, want.F, NOISE), rtol=1e-12)
