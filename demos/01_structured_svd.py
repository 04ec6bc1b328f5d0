"""Product-form SVD of a column-wise Khatri-Rao matrix, explicit and factored.

D = B * A (column k is b_k kron a_k) shows up when a diagonal unknown sits
between two known matrices: vec(A Diag(x) B^T) = D x. The demo assembles the
SVD-form triple of D from the two small factor SVDs, the one input form the
solver takes, in both of its forms: explicit (structured_svd builds the kron
U and the row-normalized Khatri-Rao Vh) and factored (khatri_rao_svd keeps
the two factor SVDs and the row norms). It checks that each reconstructs D
exactly, that they agree, and measures how far the right factor is from
orthonormal. The left factor U has orthonormal columns, rank(A)*rank(B) of
them; the right factor is row-normalized, not orthonormal. With more
components than the factors have rows, as here, the solver keeps the
factored form (linalg.product_svd). A grid with a component under the rank
cutoff is built by neither: the solver takes the dense SVD of D there.
"""
import numpy as np

from irsbeam.linalg import (KhatriRaoSVD, economy_svd, khatri_rao_columns, khatri_rao_svd,
                            orthonormality_defect, product_svd, structured_svd)

rng = np.random.default_rng(0)
m, q, k = 2, 3, 24
a = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
b = (rng.standard_normal((q, k)) + 1j * rng.standard_normal((q, k))) / np.sqrt(2)

d = khatri_rao_columns(b, a)
print(f"factors: A is {a.shape}, B is {b.shape}; D = B * A is {d.shape}")

svd_a, svd_b = economy_svd(a), economy_svd(b)
explicit = structured_svd(svd_a, svd_b)
factored = khatri_rao_svd(svd_a, svd_b)
print(f"components kept: {explicit.rank} (of {m * q} in the kron grid); "
      f"the solver keeps the factored form: "
      f"{isinstance(product_svd(svd_a, svd_b), KhatriRaoSVD)}")
for name, svd in (("explicit", explicit), ("factored", factored)):
    rel = np.linalg.norm(svd.reconstruct() - d) / np.linalg.norm(d)
    print(f"{name} form reconstruction error (relative Frobenius): {rel:.2e}")
print(f"explicit form holds U {explicit.U.shape} and Vh {explicit.Vh.shape}; the factored "
      f"form holds U {svd_a.U.shape} and {svd_b.U.shape}, Vh {svd_a.Vh.shape} and "
      f"{svd_b.Vh.shape}")
x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
want = explicit.vh_dot(x)
gap = np.linalg.norm(factored.vh_dot(x) - want) / np.linalg.norm(want)
print(f"Vh x, factored against explicit (relative):            {gap:.2e}")
print(f"left-factor orthonormality defect ||U^H U - I||:       "
      f"{orthonormality_defect(explicit.U.conj().T):.2e}")
print(f"right-factor orthonormality defect ||Vh Vh^H - I||:    "
      f"{orthonormality_defect(explicit.Vh):.3f}")
print(f"dense-SVD right factor defect, for contrast:           "
      f"{orthonormality_defect(economy_svd(d).Vh):.2e}")
