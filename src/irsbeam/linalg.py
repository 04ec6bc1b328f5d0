"""Dense complex linear-algebra kernels.

Economy SVD with rank truncation, column-wise Khatri-Rao products, and the
product-form SVD of D = B * A assembled from the factor SVDs without
factoring D itself. The product form is exact as a factorization and its
left factor has orthonormal columns; its right factor is row-normalized but
not orthonormal in general, so `orthonormality_defect` is provided as a
diagnostic. Past the factor SVDs the product form takes a few whole-array
numpy calls, and each entry is the same single product as in an
entry-by-entry assembly. A wide matrix is factored through its transpose,
because LAPACK's tall reduction is the faster one. U is Fortran- and Vh
C-ordered: their layout picks the BLAS kernel, and so the rounding, of the
products that use them. `identity(m)` is one shared read-only identity per
size for the per-iteration callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

# Relative cutoff under which singular-value components are dropped.
RANK_CUTOFF = 1e-12


@dataclass
class EconomySVD:
    """Rank-truncated triple A = U @ diag(omega) @ Vh with orthonormal U columns."""

    U: np.ndarray
    omega: np.ndarray
    Vh: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.omega.size)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.omega) @ self.Vh


def economy_svd(a: np.ndarray) -> EconomySVD:
    """Economy-size SVD of a dense complex matrix, truncated at RANK_CUTOFF
    relative to the largest singular value. U is Fortran- and Vh C-ordered.

    A wide matrix is factored through its transpose: LAPACK reduces a wide
    input by an LQ and a tall one by a QR factorization, and the tall call is
    the faster one, by a third at 4 x 256. From a^T = U S Vh, a = Vh^T S U^T,
    and Vh^T is already Fortran-ordered.
    """
    a = np.asarray(a)
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("economy_svd: input contains non-finite entries")
    wide = a.shape[0] < a.shape[1]
    u, omega, vh = np.linalg.svd(a.T if wide else a, full_matrices=False)
    # omega is sorted in descending order, so the kept components lead, and
    # when the last one is kept, so is every one and the arrays are used whole
    if not (omega.size and omega[-1] > RANK_CUTOFF * omega[0]):
        rank = np.count_nonzero(omega > RANK_CUTOFF * omega[0]) if omega.size else 0
        u, omega, vh = u[:, :rank], omega[:rank], vh[:rank]
    if wide:
        return EconomySVD(vh.T, omega, np.ascontiguousarray(u.T))
    return EconomySVD(np.asfortranarray(u), omega, vh)


def khatri_rao_columns(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Column-wise Khatri-Rao product: column k of the result is b_k kron a_k.

    b is Q x N and a is M x N; the result is (Q*M) x N with row index
    p = i*M + j for (row i of b, row j of a), the same ordering numpy's kron
    uses for vectors.
    """
    b = np.asarray(b)
    a = np.asarray(a)
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"khatri_rao_columns: column counts differ ({b.shape[1]} vs {a.shape[1]})"
        )
    return (b[:, None, :] * a[None, :, :]).reshape(b.shape[0] * a.shape[0], a.shape[1])


def structured_svd(svd_a: EconomySVD, svd_b: EconomySVD) -> EconomySVD:
    """Assemble the SVD-form triple of D = B * A from the factor SVDs.

    U = kron(U_b, U_a), omega = (omega_b kron omega_a) * v_n and Vh = the
    row-normalized Khatri-Rao product of the factor Vh's, where v_n holds the
    row norms being normalized away. One min and one max of omega decide
    whether every component is kept, as on every preset; then the arrays are
    used whole. Otherwise one boolean mask over the kron grid drops the
    components whose omega falls under the rank cutoff, and the rest keep the
    grid's order. U is the full kron from one broadcast of the transposed
    factors, masked, so it is bit-equal to np.kron(U_b, U_a)[:, kept].
    Vh's rows are multiplied by 1/v_n, not divided by v_n: the two differ
    only in the sign of a zero part whose input is -0 (each adds the other
    part times zero to it, on different sides of the scaling), and the sign
    of a zero in Vh does not reach the linear pass's output bits.
    Reconstruction is exact.
    """
    vh_kr = khatri_rao_columns(svd_b.Vh, svd_a.Vh)
    # np.linalg.norm(vh_kr, axis=1) without its dispatch
    v_n = np.sqrt(np.add.reduce((vh_kr.conj() * vh_kr).real, axis=1))
    omega_full = (svd_b.omega[:, None] * svd_a.omega).ravel() * v_n
    # U's C-ordered transpose, transposed back: Fortran-ordered without a copy
    u_t = svd_b.U.T[:, None, :, None] * svd_a.U.T[None, :, None, :]
    u = u_t.reshape(omega_full.size, u_t.shape[2] * u_t.shape[3]).T
    floor = RANK_CUTOFF * np.maximum.reduce(omega_full, initial=0.0)
    if np.minimum.reduce(omega_full, initial=np.inf) > floor:
        vh_kr *= (1.0 / v_n)[:, None]
        return EconomySVD(u, omega_full, vh_kr)
    kept = omega_full > floor
    return EconomySVD(np.asfortranarray(u[:, kept]), omega_full[kept],
                      vh_kr[kept] * (1.0 / v_n[kept, None]))


@cache
def identity(m: int) -> np.ndarray:
    """The m x m real identity np.eye(m), built once per size and read-only,
    for the per-iteration callers that subtract or add it. The cache holds
    one array per size the process asks for, and m is a user count."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def orthonormality_defect(vh: np.ndarray) -> float:
    """||Vh Vh^H - I||_F, a diagnostic for how far a row set is from orthonormal."""
    vh = np.asarray(vh)
    r = vh.shape[0]
    return float(np.linalg.norm(vh @ vh.conj().T - np.eye(r)))
