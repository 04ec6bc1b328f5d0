"""Dense complex linear-algebra kernels.

Economy SVD with rank truncation, column-wise Khatri-Rao products, and the
product-form SVD of D = B * A kept in the factor SVDs, without factoring D
itself. The product form is exact as a factorization and its left factor
has orthonormal columns; its right factor is row-normalized but not
orthonormal in general. A wide matrix is factored through its transpose,
because LAPACK's tall reduction is the faster one. U is Fortran- and Vh
C-ordered: their layout picks the BLAS kernel, and so the rounding, of the
products that use them. `identity(m)` is one shared read-only identity per
size for the per-iteration callers.

`product_svd` is the one place that decides how D is held, with two
outcomes. Where the product form can hold, it is `khatri_rao_svd`'s
`KhatriRaoSVD`, which applies U^H, Vh and Vh^H through the factor SVDs and
forms neither U nor Vh (oracles.explicit_product_form writes both out). Where
it cannot, it is the dense SVD of D. Both forms answer the linear pass's
three products, `uh_dot`, `vh_dot` and `v_dot`, and its column count
`cols`. `qr_core_svd` factors a wide matrix whose left factor is fixed
through its small core, with economy_svd's truncation but without its
finiteness scan, for a caller whose core is finite by construction. An
SVD rescaled by a scalar (`EconomySVD.scaled`) keeps |Vh|^2
(`EconomySVD.vh_modulus`), which `khatri_rao_svd` reads for A; it takes
B's afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

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

    @property
    def cols(self) -> int:
        """Column count of the matrix."""
        return self.Vh.shape[1]

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.omega) @ self.Vh

    def uh_dot(self, y: np.ndarray) -> np.ndarray:
        """U^H y."""
        return self.U.conj().T @ y

    def vh_dot(self, x: np.ndarray) -> np.ndarray:
        """Vh x."""
        return self.Vh @ x

    def v_dot(self, y: np.ndarray) -> np.ndarray:
        """Vh^H y, formed as (y^H Vh)^H, which conjugates two vectors instead
        of copying the R x K Vh; both forms run one BLAS matrix-vector
        product and give the same bits."""
        return (y.conj() @ self.Vh).conj()

    @cached_property
    def vh_modulus(self) -> np.ndarray:
        """|Vh|^2 entrywise, (conj(Vh) * Vh).real, taken on first use and kept."""
        return (self.Vh.conj() * self.Vh).real

    def scaled(self, c: float) -> EconomySVD:
        """The SVD of c times the matrix, for c > 0: omega times c, the same
        U and Vh, and |Vh|^2 handed over rather than taken again. The rank
        cutoff is relative, so the scaling keeps the same components."""
        out = EconomySVD(self.U, c * self.omega, self.Vh)
        out.vh_modulus = self.vh_modulus
        return out


def economy_svd(a: np.ndarray) -> EconomySVD:
    """Economy-size SVD of a dense complex matrix, truncated at RANK_CUTOFF
    relative to the largest singular value. U is Fortran- and Vh C-ordered.

    A wide matrix is factored through its transpose: LAPACK reduces a wide
    input by an LQ and a tall one by a QR factorization, and the tall call is
    the faster one, by a third at 4 x 256. From a^T = U S Vh, a = Vh^T S U^T,
    and Vh^T is already Fortran-ordered. The factoring, without the
    finiteness check, is _truncated_svd, which qr_core_svd shares, so there
    is one rank rule.
    """
    a = np.asarray(a)
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("economy_svd: input contains non-finite entries")
    return EconomySVD(*_truncated_svd(a))


def _truncated_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, omega, Vh) of economy_svd for a finite a, unchecked."""
    wide = a.shape[0] < a.shape[1]
    u, omega, vh = np.linalg.svd(a.T if wide else a, full_matrices=False)
    # omega is sorted in descending order, so the kept components lead, and
    # when the last one is kept, so is every one and the arrays are used whole
    if not (omega.size and omega[-1] > RANK_CUTOFF * omega[0]):
        rank = np.count_nonzero(omega > RANK_CUTOFF * omega[0]) if omega.size else 0
        u, omega, vh = u[:, :rank], omega[:rank], vh[:rank]
    if wide:
        return vh.T, omega, np.ascontiguousarray(u.T)
    return np.asfortranarray(u), omega, vh


def qr_core_svd(q: np.ndarray, core: np.ndarray) -> EconomySVD:
    """SVD of the wide matrix B = (Q C)^T, for Q, K x n with orthonormal
    columns, and its n x M core C, from the SVD of the small core, for a
    caller whose Q stays fixed while C changes.

    From C = U_c S Vh_c, Q C = (Q U_c) S Vh_c, so B has U = Vh_c^T,
    omega = S and Vh = (Q U_c)^T, formed as U_c^T Q^T so that it is
    C-ordered. Q has orthonormal columns, so S and the rank cutoff are those
    of B itself. The core is factored as economy_svd factors it, with the
    same truncation, but without its finiteness check: the caller hands over
    a finite core. In the alternating loop C = R_r F is finite by
    construction, since R_r comes from the channel set's rank factor, whose
    SVD checked H_bs, and the precoder refuses a non-finite F through its
    receiver-scale check.
    """
    u, omega, vh = _truncated_svd(core)
    return EconomySVD(vh.T, omega, u.T @ q.T)


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


@dataclass
class KhatriRaoSVD:
    """The product-form SVD of D = B * A kept in its factor SVDs.

    It stands for the triple U = kron(U_b, U_a),
    omega = (omega_b kron omega_a) * v_n and Vh the Khatri-Rao product of
    the factor Vh's with its rows divided by their norms v_n
    (oracles.explicit_product_form), and forms neither U nor Vh: omega is in
    khatri_rao_columns' order, and inv_norms[i, j] is 1/v_n of row
    p = i*R_a + j, which pairs row i of Vh_b with row j of Vh_a. A length-R
    vector is held as the R_b x R_a matrix of its row-major entries. Memory
    is O(K (R_a + R_b)) instead of O(K R_a R_b).
    """

    a: EconomySVD
    b: EconomySVD
    omega: np.ndarray
    inv_norms: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.omega.size)

    @property
    def cols(self) -> int:
        """Column count of D."""
        return self.a.Vh.shape[1]

    def reconstruct(self) -> np.ndarray:
        vh = khatri_rao_columns(self.b.Vh, self.a.Vh) * self.inv_norms.reshape(-1, 1)
        return (np.kron(self.b.U, self.a.U) * self.omega) @ vh

    def uh_dot(self, y: np.ndarray) -> np.ndarray:
        """U^H y = vec(U_a^H Z conj(U_b)) for y = vec(Z), vec stacking
        columns; the row-major reshape of y is Z^T."""
        z_t = y.reshape(self.b.U.shape[0], self.a.U.shape[0])
        return (self.b.U.conj().T @ z_t @ self.a.U.conj()).ravel()

    def vh_dot(self, x: np.ndarray) -> np.ndarray:
        """Vh x = ((Vh_b * x) Vh_a^T) * inv_norms."""
        return (((self.b.Vh * x) @ self.a.Vh.T) * self.inv_norms).ravel()

    def v_dot(self, y: np.ndarray) -> np.ndarray:
        """Vh^H y = (y^H Vh)^H, with y^H Vh the sum over i of
        Vh_b[i] * ((conj(Y) * inv_norms) Vh_a)[i]."""
        t = (y.conj().reshape(self.inv_norms.shape) * self.inv_norms) @ self.a.Vh
        return np.add.reduce(self.b.Vh * t, axis=0).conj()


def khatri_rao_svd(svd_a: EconomySVD, svd_b: EconomySVD) -> KhatriRaoSVD | None:
    """The product-form SVD of D = B * A from the factor SVDs, kept in them,
    or None when a component of the kron grid falls under the rank cutoff:
    the grid is declined whole, never truncated, and the cutoff test comes
    before any 1/v_n, so a vanishing row norm is never inverted. One min and
    one max decide it, and an empty grid is full.

    The squared row norms of the Khatri-Rao Vh are one real product of the
    factors' squared moduli, v_n^2 = |Vh_b|^2 (|Vh_a|^2)^T; each factor
    keeps its own (EconomySVD.vh_modulus), so an A rescaled per call
    (EconomySVD.scaled) takes it once. B is factored afresh for every call
    in the alternating loop, so its |Vh|^2 is formed here as vh_modulus
    forms it, without that cache, whose first access takes a lock under
    Python 3.11.
    """
    v_n = np.sqrt((svd_b.Vh.conj() * svd_b.Vh).real @ svd_a.vh_modulus.T)
    omega = (svd_b.omega[:, None] * svd_a.omega * v_n).ravel()
    if not np.minimum.reduce(omega, initial=np.inf) > \
            RANK_CUTOFF * np.maximum.reduce(omega, initial=0.0):
        return None
    return KhatriRaoSVD(svd_a, svd_b, omega, 1.0 / v_n)


def product_svd(svd_a: EconomySVD, svd_b: EconomySVD) -> EconomySVD | KhatriRaoSVD:
    """The SVD-form triple of D = B * A from the economy SVDs of A and B.

    It is the product form kept in the factors (khatri_rao_svd) at every
    user count, except in two cases, where it is the SVD of the small dense
    D with A and B rebuilt from their factors. One is a component count
    R_a*R_b above the unknown count K: there the product form stops being a
    usable surrogate for an SVD (the linear pass's precision update needs
    K/R >= 1) and the dense SVD is cheaper anyway. The other is a kron grid
    with a component under the rank cutoff, which khatri_rao_svd declines;
    the dense SVD is exact there.
    """
    svd = None
    if svd_a.rank * svd_b.rank <= svd_a.cols:
        svd = khatri_rao_svd(svd_a, svd_b)
    if svd is None:
        svd = economy_svd(khatri_rao_columns(svd_b.reconstruct(), svd_a.reconstruct()))
    return svd


@cache
def identity(m: int) -> np.ndarray:
    """The m x m real identity np.eye(m), built once per size and read-only,
    for the per-iteration callers that subtract or add it. The cache holds
    one array per size the process asks for, and m is a user count."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye

