"""Product-form SVD of a column-wise Khatri-Rao matrix, kept in its factors.

D = B * A (column k is b_k kron a_k) shows up when a diagonal unknown sits
between two known matrices: vec(A Diag(x) B^T) = D x. The demo assembles the
SVD-form triple of D from the two small factor SVDs, the one input form the
solver takes: khatri_rao_svd keeps the two factor SVDs and the row norms,
and forms neither the kron U nor the row-normalized Khatri-Rao Vh. It checks
that the triple reconstructs D exactly and that its products are those of
the product form written out (oracles.explicit_product_form). The left
factor U has orthonormal columns, rank(A)*rank(B) of them; the right factor
is row-normalized, not orthonormal. The solver keeps this form at every user
count (linalg.product_svd); a grid with more components than D has columns,
or with a component under the rank cutoff, takes the dense SVD of D instead.
"""
import numpy as np

from irsbeam.linalg import (KhatriRaoSVD, economy_svd, khatri_rao_columns, khatri_rao_svd,
                            product_svd)
from irsbeam.oracles import explicit_product_form

rng = np.random.default_rng(0)
m, q, k = 2, 3, 24
a = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
b = (rng.standard_normal((q, k)) + 1j * rng.standard_normal((q, k))) / np.sqrt(2)

d = khatri_rao_columns(b, a)
print(f"factors: A is {a.shape}, B is {b.shape}; D = B * A is {d.shape}")

svd_a, svd_b = economy_svd(a), economy_svd(b)
factored = khatri_rao_svd(svd_a, svd_b)
explicit = explicit_product_form(svd_a, svd_b)
print(f"components kept: {factored.rank} (of {m * q} in the kron grid); "
      f"the solver keeps the factored form: "
      f"{isinstance(product_svd(svd_a, svd_b), KhatriRaoSVD)}")
rel = np.linalg.norm(factored.reconstruct() - d) / np.linalg.norm(d)
print(f"factored form reconstruction error (relative Frobenius): {rel:.2e}")
print(f"written out, the form holds U {explicit.U.shape} and Vh {explicit.Vh.shape}; the "
      f"factored form holds U {svd_a.U.shape} and {svd_b.U.shape}, Vh {svd_a.Vh.shape} and "
      f"{svd_b.Vh.shape}")
x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
y = rng.standard_normal(m * q) + 1j * rng.standard_normal(m * q)
for name, got, want in (("omega", factored.omega, explicit.omega),
                        ("U^H y", factored.uh_dot(y), explicit.U.conj().T @ y),
                        ("Vh x", factored.vh_dot(x), explicit.Vh @ x),
                        ("Vh^H y", factored.v_dot(y), explicit.Vh.conj().T @ y)):
    gap = np.linalg.norm(got - want) / np.linalg.norm(want)
    print(f"{name + ',':7} factored against written out (relative):  {gap:.2e}")
