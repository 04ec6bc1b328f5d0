"""Metamorphic relations of the production solve at paper scale.

No oracle reaches N = 32, M = 4, K = 256, but the model has exact
symmetries, and the solve must keep them on any kernel:
- doubling H_bs and H_bu and quadrupling the noise scales every quantity of
  the path by a power of two, so the phases and the precoder keep their
  bits and the receiver scale halves exactly (the continuation gate compares
  two sides that both scale by 4);
- quadrupling the power and the noise keeps the precoder's regulariser,
  doubles the precoder and halves the receiver scale exactly, so the phase
  system, and with it the phases, keep their bits (the gate's two sides
  again both scale by 4);
- a unitary rotation of the station antennas, H_bs Q and Q^H H_bu, rotates
  the effective channel and the precoder and leaves the sum-rate;
- a permutation of the users permutes the columns of H_su and H_bu and
  leaves the sum-rate;
- a permutation of the surface elements, the rows of H_bs and H_su,
  permutes the phases and leaves the sum-rate. It holds for the reactive
  constraint only, whose start (every element at -1) permutes with the
  elements; the unimodular start is drawn element by element.

The last three change rounding, so they pin every iteration count and the
sum-rate to rounding. Each runs for both constraints, on a channel where
the continuation gate fires and on one where it does not, at 30 dBm and
-100 dBm noise, as the paper-solve benchmark solves, and on a reactive
channel at 20 dBm whose solve stalls. The cases name how each solve stops:
by the tolerance, at the cap, or by a stall, whose test is relative to the
objective and so keeps its bits under the scaling too.
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
# (constraint, channel index, power, whether the gate fires on it, how the solve stops)
CASES = [pytest.param("unimodular", 6, POWER, True, "tolerance", id="unimodular-gated"),
         pytest.param("unimodular", 2, POWER, False, "cap", id="unimodular-cold"),
         pytest.param("reactive", 6, POWER, True, "cap", id="reactive-gated"),
         pytest.param("reactive", 2, POWER, False, "tolerance", id="reactive-cold"),
         pytest.param("reactive", 8, 0.1, False, "stall", id="reactive-stall")]


@lru_cache(maxsize=None)
def channel(c):
    return sample_channel_set(np.random.default_rng([7, 11, c]), DIMS, scenario="B")


def solve(ch, constraint, c, power, noise=NOISE, trace=False):
    return joint_optimize(ch, power, noise,
                          OptimizerConfig(constraint=constraint, collect_trace=trace),
                          np.random.default_rng([7, 17, c]))


def stop_of(sol):
    if sol.converged:
        return "tolerance"
    return "cap" if sol.iterations == OptimizerConfig().t_max_outer else "stall"


@lru_cache(maxsize=None)
def reference(constraint, c, power, gated, stop):
    """The solve of channel c, after checking that the gate takes the
    decision the case names (a gated solve's first row is at a tenth of the
    power) and that the solve stops as the case names."""
    traced = solve(channel(c), constraint, c, power, trace=True)
    first = float(np.linalg.norm(traced.trace[0].F) ** 2)
    assert first == pytest.approx(power / START_POWER_DIVISOR if gated else power, rel=1e-12)
    assert stop_of(traced) == stop
    return traced


def assert_same_run(got, want):
    assert (got.iterations, got.converged, got.diagnostics) == \
        (want.iterations, want.converged, want.diagnostics)


@pytest.mark.parametrize("constraint, c, power, gated, stop", CASES)
def test_power_of_two_scaling_keeps_every_bit(constraint, c, power, gated, stop):
    want = reference(constraint, c, power, gated, stop)
    ch = channel(c)
    got = solve(replace(ch, H_bs=2 * ch.H_bs, H_bu=2 * ch.H_bu), constraint, c, power,
                noise=4 * NOISE)
    assert_same_run(got, want)
    assert got.upsilon.tobytes() == want.upsilon.tobytes()
    assert got.F.tobytes() == want.F.tobytes()
    assert got.alpha == want.alpha / 2


@pytest.mark.parametrize("constraint, c, power, gated, stop", CASES)
def test_power_and_noise_scaling_keeps_the_phases(constraint, c, power, gated, stop):
    want = reference(constraint, c, power, gated, stop)
    got = solve(channel(c), constraint, c, 4 * power, noise=4 * NOISE)
    assert_same_run(got, want)
    assert got.upsilon.tobytes() == want.upsilon.tobytes()
    assert got.F.tobytes() == (2 * want.F).tobytes()
    assert got.alpha == want.alpha / 2


@pytest.mark.parametrize("constraint, c, power, gated, stop", CASES)
def test_station_rotation_keeps_every_iteration_count(constraint, c, power, gated, stop):
    want = reference(constraint, c, power, gated, stop)
    ch = channel(c)
    q, _ = np.linalg.qr(complex_normal(np.random.default_rng([c, 23]), DIMS.N, DIMS.N))
    rotated = replace(ch, H_bs=ch.H_bs @ q, H_bu=q.conj().T @ ch.H_bu)
    got = solve(rotated, constraint, c, power)
    assert_same_run(got, want)
    np.testing.assert_allclose(sum_rate(rotated, got.upsilon, got.F, NOISE),
                               sum_rate(ch, want.upsilon, want.F, NOISE), rtol=1e-12)


@pytest.mark.parametrize("constraint, c, power, gated, stop", CASES)
def test_user_permutation_keeps_every_iteration_count(constraint, c, power, gated, stop):
    want = reference(constraint, c, power, gated, stop)
    ch = channel(c)
    perm = np.random.default_rng([c, 29]).permutation(DIMS.M)
    permuted = replace(ch, H_su=ch.H_su[:, perm], H_bu=ch.H_bu[:, perm],
                       d_users=ch.d_users[perm], d_irs_users=ch.d_irs_users[perm])
    got = solve(permuted, constraint, c, power)
    assert_same_run(got, want)
    np.testing.assert_allclose(sum_rate(permuted, got.upsilon, got.F, NOISE),
                               sum_rate(ch, want.upsilon, want.F, NOISE), rtol=1e-12)


@pytest.mark.parametrize("constraint, c, power, gated, stop",
                         [case for case in CASES if case.values[0] == "reactive"])
def test_surface_permutation_permutes_the_phases(constraint, c, power, gated, stop):
    want = reference(constraint, c, power, gated, stop)
    ch = channel(c)
    perm = np.random.default_rng([c, 31]).permutation(DIMS.K)
    permuted = replace(ch, H_bs=ch.H_bs[perm], H_su=ch.H_su[perm])
    got = solve(permuted, constraint, c, power)
    assert_same_run(got, want)
    # the phases agree to 3.2e-13 on these cases with the default kernels and
    # to 9.9e-13 without numpy's AVX loops; other channels reach 1.5e-10
    assert np.abs(got.upsilon - want.upsilon[perm]).max() <= 1e-11
    np.testing.assert_allclose(sum_rate(permuted, got.upsilon, got.F, NOISE),
                               sum_rate(ch, want.upsilon, want.F, NOISE), rtol=1e-12)
