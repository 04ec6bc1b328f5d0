import numpy as np
import pytest

from irsbeam.channel import complex_normal
from irsbeam.linalg import (RANK_CUTOFF, EconomySVD, economy_svd, identity, khatri_rao_columns,
                            khatri_rao_svd)
from irsbeam.vamp import prepare_system


def test_economy_svd_scalar_identity():
    svd = economy_svd(np.array([[1.0]]))
    assert np.allclose(svd.U, [[1.0]])
    assert np.allclose(svd.omega, [1.0])
    assert np.allclose(svd.Vh, [[1.0]])


def test_economy_svd_identity():
    svd = economy_svd(np.eye(2))
    assert np.allclose(svd.omega, [1.0, 1.0])
    assert np.allclose(svd.U @ svd.U.conj().T, np.eye(2), atol=1e-14)
    assert np.allclose(svd.Vh @ svd.Vh.conj().T, np.eye(2), atol=1e-14)


def test_economy_svd_reconstruction_random():
    rng = np.random.default_rng(1)
    a = complex_normal(rng, 4, 6)
    svd = economy_svd(a)
    err = np.linalg.norm(svd.reconstruct() - a) / np.linalg.norm(a)
    assert err < 1e-10
    assert np.allclose(svd.U.conj().T @ svd.U, np.eye(svd.rank), atol=1e-12)


def test_economy_svd_rank_truncation():
    rng = np.random.default_rng(2)
    a = complex_normal(rng, 5, 2) @ complex_normal(rng, 2, 5)  # rank 2 by construction
    assert economy_svd(a).rank == 2


def _orientation_cases():
    rng = np.random.default_rng(13)
    cases = [("wide", complex_normal(rng, 4, 256), 4),
             ("wide-small", complex_normal(rng, 2, 16), 2),
             ("tall", complex_normal(rng, 256, 4), 4),
             ("tall-fortran", np.asfortranarray(complex_normal(rng, 16, 2)), 2),
             ("square", complex_normal(rng, 6, 6), 6),
             ("wide-rank-deficient", complex_normal(rng, 5, 2) @ complex_normal(rng, 2, 40), 2),
             ("zero", np.zeros((3, 8), dtype=complex), 0)]
    return [pytest.param(a, rank, id=name) for name, a, rank in cases]


@pytest.mark.parametrize("a, rank", _orientation_cases())
def test_economy_svd_orientation(a, rank):
    # a wide matrix is factored through its transpose: the factors must still
    # be those of a itself, truncated, in the promised layout
    svd = economy_svd(a)
    m, n = a.shape
    assert svd.rank == rank
    assert svd.U.shape == (m, rank) and svd.Vh.shape == (rank, n)
    assert svd.U.flags.f_contiguous and svd.Vh.flags.c_contiguous
    omega_ref = np.linalg.svd(a, compute_uv=False)
    scale = omega_ref[0] if omega_ref[0] > 0 else 1.0
    assert np.abs(svd.omega - omega_ref[:rank]).max(initial=0.0) <= 1e-13 * scale
    assert np.abs(svd.U.conj().T @ svd.U - np.eye(rank)).max(initial=0.0) < 1e-12
    assert np.abs(svd.Vh @ svd.Vh.conj().T - np.eye(rank)).max(initial=0.0) < 1e-12
    assert np.linalg.norm(svd.reconstruct() - a) <= 1e-12 * max(np.linalg.norm(a), 1.0)


def sliced_economy_svd(a):
    """economy_svd with every kept count taken by the slices, the full rank too."""
    wide = a.shape[0] < a.shape[1]
    u, omega, vh = np.linalg.svd(a.T if wide else a, full_matrices=False)
    rank = np.count_nonzero(omega > RANK_CUTOFF * omega[0]) if omega.size else 0
    if wide:
        return vh[:rank].T, omega[:rank], np.ascontiguousarray(u[:, :rank].T)
    return np.asfortranarray(u[:, :rank]), omega[:rank], vh[:rank]


# a singular value exactly at the cutoff is dropped: diagonal inputs give
# LAPACK's singular values exactly
_AT_CUTOFF = [pytest.param(a.astype(complex), 1, id=name) for name, a in
              [("square-at-cutoff", np.diag([1.0, RANK_CUTOFF])),
               ("tall-at-cutoff", np.diag([1.0, RANK_CUTOFF, 1.0])[:, :2]),
               ("wide-at-cutoff", np.diag([1.0, RANK_CUTOFF, 1.0])[:2])]]


@pytest.mark.parametrize("a, rank", _orientation_cases() + _AT_CUTOFF)
def test_economy_svd_full_rank_return_equals_slicing_path(a, rank):
    # when the smallest singular value is kept, economy_svd returns LAPACK's
    # arrays without the rank count and the slices: values, strides and
    # layout must be those of the slices
    svd = economy_svd(a)
    assert svd.rank == rank
    for got, want in zip((svd.U, svd.omega, svd.Vh), sliced_economy_svd(a)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.strides == want.strides
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.tobytes(order="A") == want.tobytes(order="A")


def test_economy_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        economy_svd(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        economy_svd(np.array([[np.inf], [0.0]]))


def test_khatri_rao_single_column():
    b = np.array([[3.0], [4.0]])
    a = np.array([[1.0], [2.0]])
    out = khatri_rao_columns(b, a)
    assert out.shape == (4, 1)
    assert np.allclose(out[:, 0], [3.0, 6.0, 4.0, 8.0])


def test_khatri_rao_scalar():
    assert np.allclose(khatri_rao_columns(np.array([[1.0]]), np.array([[5.0]])), [[5.0]])


def test_khatri_rao_matches_columnwise_kron():
    rng = np.random.default_rng(3)
    b, a = complex_normal(rng, 3, 4), complex_normal(rng, 2, 4)
    out = khatri_rao_columns(b, a)
    for k in range(4):
        assert np.allclose(out[:, k], np.kron(b[:, k], a[:, k]))


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao_columns(np.ones((2, 3)), np.ones((2, 4)))


def test_structured_svd_scalars():
    svd = khatri_rao_svd(economy_svd(np.array([[1.0]])), economy_svd(np.array([[1.0]])))
    assert np.allclose(svd.omega, [1.0])
    assert np.allclose(svd.inv_norms, [[1.0]])
    assert np.allclose(svd.reconstruct(), [[1.0]])


def test_structured_svd_reconstructs_against_dense():
    rng = np.random.default_rng(4)
    a, b = complex_normal(rng, 2, 3), complex_normal(rng, 2, 3)
    d = khatri_rao_columns(b, a)
    svd = khatri_rao_svd(economy_svd(a), economy_svd(b))
    err = np.linalg.norm(svd.reconstruct() - d) / np.linalg.norm(d)
    assert err < 1e-9
    # dense SVD of the explicitly formed product as the independent oracle
    dense = economy_svd(d)
    assert np.linalg.norm(dense.reconstruct() - svd.reconstruct()) < 1e-9 * np.linalg.norm(d)


def test_structured_svd_reconstruction_sweep():
    rng = np.random.default_rng(5)
    for _ in range(60):
        m, q, n = rng.integers(1, 9, size=3)
        a, b = complex_normal(rng, m, n), complex_normal(rng, q, n)
        d = khatri_rao_columns(b, a)
        svd = khatri_rao_svd(economy_svd(a), economy_svd(b))
        assert np.all(svd.omega >= 0)
        err = np.linalg.norm(svd.reconstruct() - d) / np.linalg.norm(d)
        assert err < 1e-9


def test_structured_svd_zero_column_drops_component():
    # A is zero on columns 2 and 3, and one row of B lives on exactly those
    # columns, so that row's Khatri-Rao rows with every row of A vanish: two
    # of the four grid components fall under the cutoff. The product
    # builder declines the grid, and prepare_system takes the exact SVD of D
    rng = np.random.default_rng(6)
    a = complex_normal(rng, 3, 4)
    a[:, 2:] = 0.0
    b = np.zeros((2, 4), complex)
    b[0, :2] = complex_normal(rng, 2)
    b[1, 2:] = 2.0 * complex_normal(rng, 2)
    svd_a, svd_b = economy_svd(a), economy_svd(b)
    assert svd_a.rank * svd_b.rank == 4 <= a.shape[1]
    assert khatri_rao_svd(svd_a, svd_b) is None
    d = khatri_rao_columns(b, a)
    dense_rank = economy_svd(d).rank
    svd, _ = prepare_system(svd_a, svd_b, complex_normal(rng, 3, 2))
    assert isinstance(svd, EconomySVD) and svd.rank == dense_rank == 2
    assert np.linalg.norm(svd.Vh @ svd.Vh.conj().T - np.eye(svd.rank)) < 1e-12
    err = np.linalg.norm(svd.reconstruct() - d) / np.linalg.norm(d)
    assert err < 1e-9


def test_scaled_svd_hands_over_its_vh_modulus():
    # the loop rescales A's SVD by alpha every iteration: the scaled triple
    # shares U, Vh and |Vh|^2 with the one it came from, so the modulus is
    # taken once, and the factored assembly keeps the bits of a fresh triple
    rng = np.random.default_rng(9)
    svd, svd_b = economy_svd(complex_normal(rng, 4, 64)), economy_svd(complex_normal(rng, 4, 64))
    scaled = svd.scaled(0.3)
    assert scaled.U is svd.U and scaled.Vh is svd.Vh and scaled.vh_modulus is svd.vh_modulus
    assert scaled.omega.tobytes() == (0.3 * svd.omega).tobytes()
    assert svd.vh_modulus.tobytes() == (svd.Vh.conj() * svd.Vh).real.tobytes()
    got = khatri_rao_svd(scaled, svd_b)
    want = khatri_rao_svd(EconomySVD(svd.U, 0.3 * svd.omega, svd.Vh), svd_b)
    assert got.omega.tobytes() == want.omega.tobytes()
    assert got.inv_norms.tobytes() == want.inv_norms.tobytes()


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_identity_is_one_shared_read_only_eye(m):
    eye = identity(m)
    assert eye is identity(m)
    want = np.eye(m)
    assert eye.dtype == want.dtype and eye.strides == want.strides
    assert eye.tobytes() == want.tobytes()
    assert not eye.flags.writeable
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0
    with pytest.raises(ValueError):
        eye += 1.0
    assert identity(m).tobytes() == want.tobytes()
