"""Dense complex linear-algebra kernels.

Economy SVD with rank truncation, column-wise Khatri-Rao products, and the
product-form SVD of D = B * A assembled from the factor SVDs without
factoring D itself. The product form is exact as a factorization and its
left factor has orthonormal columns; its right factor is row-normalized but
not orthonormal in general, so `orthonormality_defect` is provided as a
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    relative to the largest singular value."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("economy_svd: input contains non-finite entries")
    u, omega, vh = np.linalg.svd(a, full_matrices=False)
    if omega.size and omega[0] > 0:
        keep = omega > RANK_CUTOFF * omega[0]
        u, omega, vh = u[:, keep], omega[keep], vh[keep]
    else:
        u, omega, vh = u[:, :0], omega[:0], vh[:0]
    return EconomySVD(u, omega, vh)


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

    U = kron(U_b, U_a) restricted to the kept columns,
    omega = (omega_b kron omega_a) * v_n and Vh = row-normalized Khatri-Rao
    of the factor Vh's, where v_n holds the row norms being normalized away.
    Components whose omega falls under the rank cutoff are dropped, and the
    rest keep the order of the kron grid. Reconstruction is exact.
    """
    vh_kr = khatri_rao_columns(svd_b.Vh, svd_a.Vh)
    v_n = np.linalg.norm(vh_kr, axis=1)
    omega_full = np.kron(svd_b.omega, svd_a.omega) * v_n
    if omega_full.size and omega_full.max() > 0:
        kept = np.flatnonzero(omega_full > RANK_CUTOFF * omega_full.max())
    else:
        kept = np.zeros(0, dtype=np.intp)
    # column p = i*R_a + j of kron(U_b, U_a) is U_b[:, i] kron U_a[:, j]
    i, j = np.divmod(kept, svd_a.rank)
    u = khatri_rao_columns(svd_b.U[:, i], svd_a.U[:, j])
    return EconomySVD(u, omega_full[kept], vh_kr[kept] / v_n[kept, None])


def orthonormality_defect(vh: np.ndarray) -> float:
    """||Vh Vh^H - I||_F, a diagnostic for how far a row set is from orthonormal."""
    vh = np.asarray(vh)
    r = vh.shape[0]
    return float(np.linalg.norm(vh @ vh.conj().T - np.eye(r)))
