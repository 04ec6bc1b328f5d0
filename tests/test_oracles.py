import numpy as np
import pytest

from irsbeam.channel import SystemDims, complex_normal, sample_channel_set
from irsbeam.oracles import (dense_lmmse, grid_phase_search, grid_reactance,
                             precoder_objective, precoder_reference,
                             random_precoder_search, sum_mse_reference)
from irsbeam.precoding import effective_channel, mmse_precoder


def test_dense_lmmse_identity_case():
    n = 3
    rng = np.random.default_rng(0)
    z = complex_normal(rng, n)
    x_bar, gamma_bar, r_ext, gamma_ext = dense_lmmse(np.eye(n), z,
                                                     np.zeros(n, complex), 1.0)
    assert np.allclose(x_bar, z / 2)
    assert gamma_bar == pytest.approx(2.0)
    assert gamma_ext == pytest.approx(1.0)
    assert np.allclose(r_ext, z)


def test_dense_lmmse_prior_dominated():
    rng = np.random.default_rng(1)
    d = complex_normal(rng, 4, 6)
    r = complex_normal(rng, 6)
    x_bar, _, _, _ = dense_lmmse(d, complex_normal(rng, 4), r, 1e12)
    assert np.abs(x_bar - r).max() < 1e-9


def test_dense_lmmse_extrinsic_recombination():
    # treating the extrinsic output as a prior and combining it with the
    # incoming message must reproduce the posterior pair; the system is
    # scaled by sqrt(1.7), which a noise-precision weight of 1.7 amounts to
    rng = np.random.default_rng(2)
    d = complex_normal(rng, 4, 6)
    r = complex_normal(rng, 6)
    gamma = 0.8
    w = np.sqrt(1.7)
    x_bar, gamma_bar, r_ext, gamma_ext = dense_lmmse(w * d, w * complex_normal(rng, 4), r, gamma)
    assert gamma_ext + gamma == pytest.approx(gamma_bar)
    recombined = (gamma_ext * r_ext + gamma * r) / (gamma_ext + gamma)
    assert np.abs(recombined - x_bar).max() < 1e-10


def test_dense_lmmse_dimension_cap():
    with pytest.raises(ValueError):
        dense_lmmse(np.eye(80), np.zeros(80), np.zeros(80), 1.0)


def test_grid_phase_search_single_reflector_refinement():
    dims = SystemDims(2, 1, 2)
    ch = sample_channel_set(np.random.default_rng(3), dims)
    _, coarse = grid_phase_search(ch, 1.0, 1e-13, points_per_phase=90)
    _, fine = grid_phase_search(ch, 1.0, 1e-13, points_per_phase=360)
    assert fine <= coarse + 1e-15
    assert coarse - fine <= 0.05 * max(fine, 1e-12)


def test_grid_phase_search_beats_random_draws():
    dims = SystemDims(3, 1, 2)
    ch = sample_channel_set(np.random.default_rng(4), dims)
    ups_best, best = grid_phase_search(ch, 1.0, 1e-13, points_per_phase=64)
    assert np.allclose(np.abs(ups_best), 1.0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        ups = np.exp(2j * np.pi * rng.random(2))
        sol = mmse_precoder(effective_channel(ch, ups), 1.0, 1e-13)
        err = sum_mse_reference(sol.alpha, sol.F, effective_channel(ch, ups), 1e-13)
        assert best <= err + 1e-12


def test_grid_phase_search_budget_guards():
    dims = SystemDims(8, 2, 16)
    ch = sample_channel_set(np.random.default_rng(6), dims)
    with pytest.raises(ValueError):
        grid_phase_search(ch, 1.0, 1e-13)
    tiny = sample_channel_set(np.random.default_rng(7), SystemDims(3, 1, 3))
    with pytest.raises(ValueError):
        grid_phase_search(tiny, 1.0, 1e-13, points_per_phase=101)


def test_grid_reactance_known_values():
    assert grid_reactance(1j, points=100_000) == pytest.approx((1 + np.sqrt(5)) / 2,
                                                               abs=1e-3)
    assert grid_reactance(-1.0, points=100_000) == pytest.approx(0.0, abs=1e-3)


def test_grid_reactance_conjugate_sign():
    chi = grid_reactance(0.4 + 1.1j, points=50_000)
    chi_conj = grid_reactance(0.4 - 1.1j, points=50_000)
    assert chi > 0 > chi_conj
    assert chi == pytest.approx(-chi_conj, rel=1e-3)


def test_random_search_scalar_never_wins():
    h = np.array([[1.0 + 0j]])
    sol = mmse_precoder(h, 1.0, 0.5)
    closed = precoder_objective(h, sol.F, 0.5)
    best = random_precoder_search(h, 1.0, 0.5, 10_000, np.random.default_rng(8))
    assert best >= closed - 1e-9


def test_random_search_gap_bounded():
    rng = np.random.default_rng(9)
    h = complex_normal(rng, 2, 1)
    sol = mmse_precoder(h, 1.0, 0.1)
    closed = precoder_objective(h, sol.F, 0.1)
    best = random_precoder_search(h, 1.0, 0.1, 30_000, np.random.default_rng(10))
    assert best >= closed - 1e-6


def test_search_equals_closed_form_at_its_own_point():
    rng = np.random.default_rng(11)
    h = complex_normal(rng, 3, 2)
    sol = mmse_precoder(h, 2.0, 0.05)
    val = precoder_objective(h, sol.F, 0.05)
    alpha_ref, f_ref = precoder_reference(h, 2.0, 0.05)
    want = sum_mse_reference(alpha_ref, f_ref, h, 0.05)
    assert val == pytest.approx(want, rel=1e-10)
