"""Dense complex linear-algebra kernels.

Economy SVD with rank truncation, column-wise Khatri-Rao products, and the
product-form SVD of D = B * A assembled from the factor SVDs without ever
forming D. The product form is exact as a factorization; its right factor is
row-normalized but not orthonormal in general, so `orthonormality_defect`
is provided as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative cutoff under which singular-value components are dropped.
DEFAULT_RANK_TOL = 1e-12


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


@dataclass
class StructuredSVD:
    """Product-form SVD of the column-wise Khatri-Rao matrix D = B * A.

    The left factor U = kron(U_b, U_a) stays implicit. `kept` indexes the
    retained components of the full R_a*R_b grid; components whose
    normalization-vector entry (row norm of the Khatri-Rao of the right
    factors) vanishes, or whose singular value falls under the rank cutoff,
    are dropped.
    """

    U_a: np.ndarray
    U_b: np.ndarray
    kept: np.ndarray
    omega: np.ndarray
    Vh: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.omega.size)

    def materialize_u(self) -> np.ndarray:
        """Dense left factor; only for small diagnostics and tests."""
        return np.kron(self.U_b, self.U_a)[:, self.kept]

    def to_economy(self) -> EconomySVD:
        return EconomySVD(self.materialize_u(), self.omega, self.Vh)

    def reconstruct(self) -> np.ndarray:
        return (self.materialize_u() * self.omega) @ self.Vh


def economy_svd(a: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> EconomySVD:
    """Economy-size SVD of a dense complex matrix, truncated at rank_tol
    relative to the largest singular value."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("economy_svd: input contains non-finite entries")
    u, omega, vh = np.linalg.svd(a, full_matrices=False)
    if omega.size and omega[0] > 0:
        keep = omega > rank_tol * omega[0]
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


def structured_svd(
    svd_a: EconomySVD,
    svd_b: EconomySVD,
    sort: bool = False,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> StructuredSVD:
    """Assemble the SVD-form triple of D = B * A from the factor SVDs.

    omega = (omega_b kron omega_a) * v_n and Vh = row-normalized Khatri-Rao
    of the factor Vh's, where v_n holds the row norms being normalized away.
    Reconstruction is exact; component order follows the kron grid unless
    `sort` is set (the iterative solver is order-invariant, and unsorted
    components stay index-aligned with `kron_transform`).
    """
    vh_kr = khatri_rao_columns(svd_b.Vh, svd_a.Vh)
    v_n = np.linalg.norm(vh_kr, axis=1)
    omega_full = np.kron(svd_b.omega, svd_a.omega) * v_n
    if omega_full.size and omega_full.max() > 0:
        kept = np.flatnonzero(omega_full > rank_tol * omega_full.max())
    else:
        kept = np.zeros(0, dtype=np.intp)
    omega = omega_full[kept]
    vh = vh_kr[kept] / v_n[kept, None]
    if sort and omega.size:
        order = np.argsort(omega)[::-1]
        kept, omega, vh = kept[order], omega[order], vh[order]
    return StructuredSVD(svd_a.U, svd_b.U, kept, omega, vh)


def kron_transform(u_a: np.ndarray, u_b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """vec(U_a^H @ Z @ conj(U_b)) with column-major vec.

    Equals kron(U_b, U_a)^H @ vec(Z) without forming the Kronecker product;
    index p of the result pairs with column p = i*R_a + j of kron(U_b, U_a).
    """
    u_a = np.asarray(u_a)
    u_b = np.asarray(u_b)
    z = np.asarray(z)
    if z.shape != (u_a.shape[0], u_b.shape[0]):
        raise ValueError(
            f"kron_transform: Z is {z.shape}, expected {(u_a.shape[0], u_b.shape[0])}"
        )
    return (u_a.conj().T @ z @ u_b.conj()).flatten(order="F")


def orthonormality_defect(vh: np.ndarray) -> float:
    """||Vh Vh^H - I||_F, a diagnostic for how far a row set is from orthonormal."""
    vh = np.asarray(vh)
    r = vh.shape[0]
    return float(np.linalg.norm(vh @ vh.conj().T - np.eye(r)))


def save_matrix(path, m: np.ndarray) -> None:
    """Write a complex matrix as text: header "rows cols", then one
    "re im" pair per entry in row-major order."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    with open(path, "w") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for v in m.reshape(-1):
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix."""
    with open(path) as fh:
        rows, cols = (int(tok) for tok in fh.readline().split())
        data = np.empty(rows * cols, dtype=complex)
        for i in range(rows * cols):
            re, im = fh.readline().split()
            data[i] = float(re) + 1j * float(im)
    return data.reshape(rows, cols)
