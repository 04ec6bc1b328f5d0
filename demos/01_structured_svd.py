"""Product-form SVD of a column-wise Khatri-Rao matrix.

D = B * A (column k is b_k kron a_k) shows up when a diagonal unknown sits
between two known matrices: vec(A Diag(x) B^T) = D x. The demo assembles the
SVD-form triple of D from the two small factor SVDs, checks that it
reconstructs D exactly, and measures how far its right factor is from
orthonormal. The left factor U is explicit, with orthonormal columns and at
most rank(A)*rank(B) of them; the right factor is row-normalized, not
orthonormal.
"""
import numpy as np

from irsbeam.linalg import (economy_svd, khatri_rao_columns, orthonormality_defect,
                            structured_svd)

rng = np.random.default_rng(0)
m, q, k = 2, 3, 24
a = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
b = (rng.standard_normal((q, k)) + 1j * rng.standard_normal((q, k))) / np.sqrt(2)

d = khatri_rao_columns(b, a)
print(f"factors: A is {a.shape}, B is {b.shape}; D = B * A is {d.shape}")

svd = structured_svd(economy_svd(a), economy_svd(b))
rel = np.linalg.norm(svd.reconstruct() - d) / np.linalg.norm(d)
print(f"components kept: {svd.rank} (of {m * q} in the kron grid)")
print(f"reconstruction error (relative Frobenius): {rel:.2e}")
print(f"left-factor orthonormality defect ||U^H U - I||:       "
      f"{orthonormality_defect(svd.U.conj().T):.2e}")
print(f"right-factor orthonormality defect ||Vh Vh^H - I||:    "
      f"{orthonormality_defect(svd.Vh):.3f}")
print(f"dense-SVD right factor defect, for contrast:           "
      f"{orthonormality_defect(economy_svd(d).Vh):.2e}")
