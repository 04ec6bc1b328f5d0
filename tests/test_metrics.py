import numpy as np
import pytest

from irsbeam.channel import ChannelSet, complex_normal
from irsbeam.metrics import fit_error, nrmse, per_user_sinr, sum_rate
from irsbeam.precoding import effective_channel


def toy_channel(rng, n, m, k):
    return ChannelSet(complex_normal(rng, k, n), complex_normal(rng, n, m),
                      complex_normal(rng, k, m))


def test_sum_rate_single_user_unit_sinr():
    # |h^H f|^2 = 1 with sigma^2 = 1 gives log2(2) = 1
    ch = ChannelSet(np.zeros((2, 1), complex), np.array([[1.0 + 0j]]),
                    np.zeros((2, 1), complex))
    f = np.array([[1.0 + 0j]])
    assert sum_rate(ch, np.zeros(2, complex), f, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_sum_rate_zero_precoder():
    rng = np.random.default_rng(0)
    ch = toy_channel(rng, 4, 2, 6)
    assert sum_rate(ch, np.ones(6, complex), np.zeros((4, 2), complex), 1e-3) == 0.0


def test_sum_rate_matches_per_user_expansion():
    rng = np.random.default_rng(1)
    ch = toy_channel(rng, 4, 2, 6)
    ups = np.exp(2j * np.pi * rng.random(6))
    f = complex_normal(rng, 4, 2)
    got = sum_rate(ch, ups, f, 0.01)
    want = 0.0
    for m in range(2):
        row = ch.H_su[:, m].conj() @ np.diag(ups) @ ch.H_bs + ch.H_bu[:, m].conj()
        sig = abs(row @ f[:, m]) ** 2
        interf = sum(abs(row @ f[:, i]) ** 2 for i in range(2) if i != m)
        want += np.log2(1 + sig / (0.01 + interf))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_sum_rate_invariant_to_common_phase():
    rng = np.random.default_rng(2)
    ch = toy_channel(rng, 4, 3, 6)
    ups = np.exp(2j * np.pi * rng.random(6))
    f = complex_normal(rng, 4, 3)
    base = sum_rate(ch, ups, f, 0.05)
    rotated = sum_rate(ch, ups, np.exp(1j * 1.234) * f, 0.05)
    np.testing.assert_allclose(rotated, base, rtol=1e-12)


def test_per_user_sinr_positive():
    rng = np.random.default_rng(3)
    ch = toy_channel(rng, 4, 2, 6)
    sinr = per_user_sinr(effective_channel(ch, np.ones(6, complex)), complex_normal(rng, 4, 2), 0.1)
    assert sinr.shape == (2,)
    assert np.all(sinr >= 0)


def test_nrmse_zero_solution():
    rng = np.random.default_rng(4)
    ch = toy_channel(rng, 4, 2, 6)
    assert nrmse(0.0, np.ones(6, complex), np.zeros((4, 2), complex), ch, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_fit_error_zero_solution_is_user_count():
    rng = np.random.default_rng(5)
    ch = toy_channel(rng, 4, 3, 6)
    h = effective_channel(ch, np.ones(6, complex))
    assert fit_error(0.0, h, np.zeros((4, 3), complex), 0.0) == pytest.approx(3.0, rel=1e-12)


def test_nrmse_perfect_equalization():
    # single-branch channel where alpha H^H F = I exactly and sigma^2 = 0
    ch = ChannelSet(np.zeros((2, 1), complex), np.array([[2.0 + 0j]]),
                    np.zeros((2, 1), complex))
    f = np.array([[0.5 + 0j]])
    assert nrmse(1.0, np.zeros(2, complex), f, ch, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_nrmse_identity_with_objective():
    rng = np.random.default_rng(6)
    ch = toy_channel(rng, 5, 3, 7)
    ups = np.exp(2j * np.pi * rng.random(7))
    f = complex_normal(rng, 5, 3)
    alpha = 0.77
    err = fit_error(alpha, effective_channel(ch, ups), f, 0.02)
    val = nrmse(alpha, ups, f, ch, 0.02)
    np.testing.assert_allclose(val**2 * 3, err, rtol=1e-12)

