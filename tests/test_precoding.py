from dataclasses import replace

import numpy as np
import pytest

from irsbeam.altopt import joint_optimize
from irsbeam.channel import ChannelSet, SystemDims, complex_normal, perturb_csi, sample_channel_set
from irsbeam.harness import fixed_phase_design
from irsbeam.metrics import fit_error
from irsbeam.oracles import (precoder_objective, precoder_reference,
                             random_precoder_search)
from irsbeam.precoding import effective_channel, mmse_precoder


def toy_channel(rng, n, m, k):
    return ChannelSet(complex_normal(rng, k, n), complex_normal(rng, n, m),
                      complex_normal(rng, k, m), d_users=np.full(m, 500.0),
                      d_irs_users=np.full(m, 30.0))


def test_effective_channel_silent_irs():
    rng = np.random.default_rng(0)
    ch = toy_channel(rng, 4, 2, 6)
    h = effective_channel(ch, np.zeros(6, dtype=complex))
    assert np.allclose(h, ch.H_bu)


def test_effective_channel_scalar_chain():
    ch = ChannelSet(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]),
                    np.array([[1.0 + 0j]]))
    h = effective_channel(ch, np.array([1.0 + 0j]))
    assert np.allclose(h, [[2.0]])


def test_effective_channel_matches_per_user_rows():
    rng = np.random.default_rng(1)
    ch = toy_channel(rng, 5, 3, 7)
    ups = np.exp(2j * np.pi * rng.random(7))
    h = effective_channel(ch, ups)
    for m in range(3):
        row = ch.H_su[:, m].conj() @ (ups[:, None] * ch.H_bs) + ch.H_bu[:, m].conj()
        assert np.allclose(h.conj().T[m], row, atol=1e-13)


def test_effective_channel_through_the_rank_factor_matches_direct_form():
    # through the channel set's H_bs = Q_r R_r the product runs at width r:
    # min(10 paths, N) on the sampled set, full rank on its kappa = 0.9
    # estimate; both match the literal direct form to rounding
    for dims, ranks in ((SystemDims(8, 2, 16), (8, 8)), (SystemDims(32, 4, 256), (10, 32))):
        ch = sample_channel_set(np.random.default_rng(26), dims)
        est = perturb_csi(ch, 0.9, np.random.default_rng(27))
        ups = np.exp(2j * np.pi * np.random.default_rng(28).random(dims.K))
        for c, rank in zip((ch, est), ranks):
            assert c.H_bs_factor[0].shape[1] == rank, dims
            want = (c.H_su.conj().T @ np.diag(ups) @ c.H_bs + c.H_bu.conj().T).conj().T
            got = effective_channel(c, ups)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), dims


def test_effective_channel_shape_check():
    rng = np.random.default_rng(2)
    ch = toy_channel(rng, 4, 2, 6)
    with pytest.raises(ValueError):
        effective_channel(ch, np.ones(5, dtype=complex))


def test_alpha_scalar_hand_case():
    assert mmse_precoder(np.array([[1.0 + 0j]]), 1.0, 1.0).alpha == pytest.approx(0.5)


def test_alpha_noiseless_limit():
    assert mmse_precoder(np.array([[1.0 + 0j]]), 1.0, 0.0).alpha == pytest.approx(1.0)


def test_alpha_scale_law():
    # H -> cH with noise power c^2 sigma^2 rescales alpha by 1/c and leaves
    # the achieved sum-MSE unchanged
    rng = np.random.default_rng(3)
    h = complex_normal(rng, 4, 2)
    c = 3.7
    s1 = mmse_precoder(h, 2.0, 0.02)
    s2 = mmse_precoder(c * h, 2.0, c**2 * 0.02)
    assert s2.alpha * c == pytest.approx(s1.alpha, rel=1e-12)
    e1 = np.linalg.norm(s1.alpha * h.conj().T @ s1.F - np.eye(2)) ** 2 + 2 * s1.alpha**2 * 0.02
    e2 = (np.linalg.norm(s2.alpha * (c * h).conj().T @ s2.F - np.eye(2)) ** 2
          + 2 * s2.alpha**2 * c**2 * 0.02)
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_precoder_scalar_hand_case():
    sol = mmse_precoder(np.array([[1.0 + 0j]]), 1.0, 1.0)
    assert np.allclose(sol.F, [[1.0]])
    assert sol.alpha == pytest.approx(0.5)


def test_precoder_power_constraint_exact():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        power = float(rng.uniform(0.1, 10))
        sol = mmse_precoder(complex_normal(rng, n, m), power, float(rng.uniform(1e-4, 1.0)))
        assert abs(np.linalg.norm(sol.F) ** 2 - power) < 1e-10 * power


def test_precoder_matches_literal_reference():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = complex_normal(rng, 4, 2)
        sol = mmse_precoder(h, 1.5, 0.03)
        alpha_ref, f_ref = precoder_reference(h, 1.5, 0.03)
        assert abs(sol.alpha - alpha_ref) < 1e-10
        assert np.abs(sol.F - f_ref).max() < 1e-10


def test_precoder_never_beaten_by_random_search_small():
    rng = np.random.default_rng(6)
    h = complex_normal(rng, 3, 2)
    sol = mmse_precoder(h, 1.0, 0.05)
    closed = precoder_objective(h, sol.F, 0.05)
    best = random_precoder_search(h, 1.0, 0.05, 20_000, np.random.default_rng(7))
    assert best >= closed - 1e-6


def test_precoder_zero_noise_pseudoinverse_path():
    rng = np.random.default_rng(8)
    h = complex_normal(rng, 4, 2)
    sol = mmse_precoder(h, 1.0, 0.0)
    assert abs(np.linalg.norm(sol.F) ** 2 - 1.0) < 1e-10
    # zero-forcing limit: alpha H^H F approaches identity
    assert np.abs(sol.alpha * h.conj().T @ sol.F - np.eye(2)).max() < 1e-8


def test_precoder_rejects_zero_channel():
    with pytest.raises(ValueError, match="all-zero"):
        mmse_precoder(np.zeros((3, 2), dtype=complex), 1.0, 0.1)
    with pytest.raises(ValueError, match="power"):
        mmse_precoder(np.ones((3, 2), dtype=complex), 0.0, 0.1)


@pytest.mark.parametrize("noise_var", [0.1, 0.0], ids=["inverse", "pseudo-inverse"])
def test_precoder_names_an_all_zero_channel_on_both_branches(noise_var):
    # the all-zero scan runs only once the receiver scale is refused: an
    # all-zero channel gives alpha = 0 through the inverse of the
    # regularised Gram matrix and through the pseudo-inverse of a zero one
    for m in (1, 2, 4):
        with pytest.raises(ValueError, match="^precoder: all-zero channel, no signal path$"):
            mmse_precoder(np.zeros((5, m), dtype=complex), 1.0, noise_var)


def test_precoder_refuses_degenerate_power_and_noise():
    # a NaN or infinite power, or a negative or non-finite noise variance,
    # would otherwise give a NaN precoder, alpha = 0, a negative sum-MSE or
    # an SVD failure deep inside numpy; the error names the argument
    h = complex_normal(np.random.default_rng(11), 4, 2)
    nan, inf = float("nan"), float("inf")
    for power, noise_var, name in ((nan, 0.1, "power"), (inf, 0.1, "power"),
                                   (-1.0, 0.1, "power"), (1.0, -0.5, "noise_var"),
                                   (1.0, nan, "noise_var"), (1.0, inf, "noise_var")):
        with pytest.raises(ValueError, match=f"^precoder: {name} must be"):
            mmse_precoder(h, power, noise_var)
    # the alternating loop refuses a negative noise variance before its first
    # step, and a degenerate power with its value, past the power schedule's gate
    ch = sample_channel_set(np.random.default_rng(12), SystemDims(4, 2, 9))
    with pytest.raises(ValueError, match="^precoder: noise_var must be"):
        joint_optimize(ch, 1.0, -1e-13)
    for power in (0.0, -1.0, nan, inf):
        with pytest.raises(ValueError, match=f"^precoder: power must be .*, got {power}$"):
            joint_optimize(ch, power, 1e-13)


def test_precoder_and_fixed_phase_baselines_refuse_a_nan_channel():
    # a NaN entry makes the receiver scale NaN, which fails 0 < alpha < inf
    h = complex_normal(np.random.default_rng(13), 4, 1)
    h[2, 0] = np.nan
    with pytest.raises(ValueError, match="^precoder: receiver scale must be positive and "
                                         "finite, got nan$"):
        mmse_precoder(h, 1.0, 0.1)
    # a channel set with a NaN entry is not built, so no solver meets one
    ch = sample_channel_set(np.random.default_rng(14), SystemDims(4, 1, 4))
    h_bs = ch.H_bs.copy()
    h_bs[1, 2] = np.nan
    with pytest.raises(ValueError, match="^ChannelSet: non-finite entries$"):
        replace(ch, H_bs=h_bs)
    # a set whose H_bs is written in place after building reaches the
    # finiteness check of the rank factor's SVD, taken on first use,
    # instead of returning a NaN design, in the fixed-phase baselines and
    # in the alternating loop alike
    stale = replace(ch, H_bs=ch.H_bs.copy())
    stale.H_bs[1, 2] = np.nan
    for upsilon in (np.ones(4, dtype=complex), np.zeros(4, dtype=complex)):
        with pytest.raises(ValueError, match="^economy_svd: input contains non-finite entries$"):
            fixed_phase_design(stale, upsilon, 1.0, 1e-13)
    with pytest.raises(ValueError, match="^economy_svd: input contains non-finite entries$"):
        joint_optimize(stale, 1.0, 1e-13)


def test_precoder_on_synthesized_channel_scale():
    # physical magnitudes (path losses ~1e-10) must not break conditioning
    dims = SystemDims(8, 2, 16)
    ch = sample_channel_set(np.random.default_rng(9), dims)
    ups = np.exp(2j * np.pi * np.random.default_rng(10).random(16))
    sol = mmse_precoder(effective_channel(ch, ups), 1.0, 1e-13)
    assert abs(np.linalg.norm(sol.F) ** 2 - 1.0) < 1e-10
    assert np.isfinite(sol.alpha) and sol.alpha > 0


def test_push_through_precoder_matches_reference_at_paper_scale():
    # N = 32, M = 4 at physical path loss: the M x M push-through solve gives
    # the N x N closed form of the literal reference
    dims = SystemDims(32, 4, 256)
    for seed in (21, 22, 23):
        ch = sample_channel_set(np.random.default_rng(seed), dims)
        ups = np.exp(2j * np.pi * np.random.default_rng(seed + 100).random(dims.K))
        h = effective_channel(ch, ups)
        sol = mmse_precoder(h, 1.0, 1e-13)
        alpha_ref, f_ref = precoder_reference(h, 1.0, 1e-13)
        assert abs(sol.alpha - alpha_ref) < 1e-10 * alpha_ref
        assert np.abs(sol.F - f_ref).max() < 1e-10


def test_push_through_pseudoinverse_matches_dense_form(monkeypatch):
    # two identical users make H^H H singular: noise-free, the M x M
    # pseudo-inverse branch runs directly; at noise_var = 1e-40 the
    # regularizer rounds away, inv refuses the exactly singular Gram matrix
    # and the same branch takes over. Either must give the N x N form
    # pinv(HH^H) H
    dims = SystemDims(32, 4, 256)
    ch = sample_channel_set(np.random.default_rng(24), dims)
    h = effective_channel(ch, np.exp(2j * np.pi * np.random.default_rng(25).random(dims.K)))
    h[:, 1] = h[:, 0]
    x = np.linalg.pinv(h @ h.conj().T) @ h
    alpha_ref = float(np.linalg.norm(x))
    pinv, pinv_calls = np.linalg.pinv, []

    def counted_pinv(a):
        pinv_calls.append(1)
        return pinv(a)

    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    for noise_var in (0.0, 1e-40):
        sol = mmse_precoder(h, 1.0, noise_var)
        assert abs(sol.alpha - alpha_ref) < 1e-10 * alpha_ref
        assert np.abs(sol.F - x / alpha_ref).max() < 1e-10
        assert abs(np.linalg.norm(sol.F) ** 2 - 1.0) < 1e-10
        assert sol.error == pytest.approx(fit_error(sol.alpha, h, sol.F, noise_var), rel=1e-12)
    assert len(pinv_calls) == 2
