"""Floating-point identities the per-iteration path relies on for its bits.

The alternating loop multiplies complex arrays by the reciprocal of a
positive real instead of dividing by it, inverts the precoder's Gram matrix
with inv instead of solve(G, I), takes the projector's tie branch only
when a tie exists, forms Vh^H y as (y^H Vh)^H, takes the precoder's
Frobenius norms as two dot products, calls the ufunc reductions in place of
the array methods that wrap them, takes the projector and its derivative
(the literal radius/(2|r - center|), capped) from one |r - center|, decides
"every component kept" in the product builders from one min and one max,
builds structured_svd's U Fortran-ordered from the transposed factors, and
takes the precoder's square roots with math.sqrt. Each is bit-equal to the
form it replaced only through the identities checked here, on numpy's SIMD
kernels and on OpenBLAS's, so if a numpy or CPU change ever moves the golden
CSVs, these name the cause. CI runs this file again under other SIMD and
BLAS kernels.
"""

import math

import numpy as np
import pytest

from irsbeam.linalg import (RANK_CUTOFF, EconomySVD, economy_svd, khatri_rao_columns,
                            structured_svd)
from irsbeam.precoding import _frobenius
from irsbeam.projectors import DERIVATIVE_CAP, REACTIVE, UNIMODULAR
from irsbeam.vamp import ExtrinsicMessage, lmmse_extrinsic

TINY = np.finfo(float).tiny

# (K,) projector and message vectors, (R,) = (M^2,) observations, (N, M)
# precoders, and the (M^2, K) row stacks
SHAPES = [(16,), (64,), (256,), (4,), (16,), (64,), (8, 2), (32, 4), (32, 8), (16, 256)]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def random_complex(rng, shape, scale):
    return scale * (rng.uniform(0.5, 2.0, shape) * rng.choice([-1, 1], shape)
                    + 1j * rng.uniform(0.5, 2.0, shape) * rng.choice([-1, 1], shape))


@pytest.mark.parametrize("shape", SHAPES)
def test_reciprocal_multiply_equals_complex_by_real_division(shape):
    # numpy divides a complex array by a real one in its complex-division
    # loop; for a zero imaginary part that loop forms the products a*(1/c) and
    # b*(1/c), which the complex multiply by 1/c forms too
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
        x = random_complex(rng, shape, scale)
        c_scalar = float(rng.uniform(1e-8, 1e8))
        c_array = 10.0 ** rng.uniform(-8, 8, shape)
        for c in (c_scalar, c_array):
            assert np.array_equal(bits(x * (1.0 / c)), bits(x / c))
        # a column of reals against the rows, as a row scaling broadcasts
        if len(shape) == 2:
            c_col = 10.0 ** rng.uniform(-8, 8, (shape[0], 1))
            assert np.array_equal(bits(x * (1.0 / c_col)), bits(x / c_col))


@pytest.mark.parametrize("m", [2, 4, 8])
def test_inverse_equals_solve_against_identity(m):
    # both run LAPACK gesv on an identity right-hand side
    rng = np.random.default_rng(m)
    for _ in range(50):
        h = random_complex(rng, (4 * m, m), 1.0) * 10.0 ** rng.uniform(-6, 3)
        gram = h.conj().T @ h + 10.0 ** rng.uniform(-12, 0) * np.eye(m)
        assert np.array_equal(bits(np.linalg.inv(gram)), bits(np.linalg.solve(gram, np.eye(m))))
    for singular in (np.zeros((m, m), dtype=complex), np.ones((m, m), dtype=complex)):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(singular)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, np.eye(m))


@pytest.mark.parametrize("shape", [(8, 2), (32, 4), (2, 2), (4, 4)])
def test_frobenius_norm_equals_its_two_dot_products(shape):
    # precoding._frobenius: np.linalg.norm's own sums for a complex array
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-8, 1.0, 1e8):
        a = random_complex(rng, shape, scale)
        x = a.ravel(order="K")
        assert np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) == np.linalg.norm(a)


@pytest.mark.parametrize("projector", [UNIMODULAR, REACTIVE], ids=lambda p: p.name)
def test_projector_fast_path_equals_tie_path_and_literal(projector):
    rng = np.random.default_rng(11)
    c = projector.center
    # offsets from the center: generic ones; magnitudes at and just above the
    # smallest normal, then just below it and an exact tie, all imaginary so
    # that center + offset - center gives them back exactly; NaN and inf
    d = np.concatenate([
        random_complex(rng, 64, 1.0),
        1j * TINY * np.array([1.0, -(1.0 + 2**-52), 2.0]),
        1j * TINY * np.array([-(1.0 - 2**-52), 0.5, 0.0]),
        [np.nan, complex(np.nan, 1.0), np.inf, complex(1.0, -np.inf), complex(np.inf, np.inf)],
    ])
    r = c + d
    with np.errstate(invalid="ignore"):
        mag = np.abs(r - c)
        tie = mag < TINY
        literal = np.where(tie, c + projector.radius,
                           c + projector.radius * ((r - c) / np.where(tie, 1.0, mag)))
    # the projector itself raises no floating-point warning, inf and NaN included
    got = projector.g(r)
    clear = ~tie
    fast = projector.g(r[clear])
    # a tie appended to the same entries sends them down the tie branch
    via_tie = projector.g(np.append(r[clear], c))[:-1]
    assert tie.sum() == 3 and not tie[:67].any()
    np.testing.assert_array_equal(got, literal)
    np.testing.assert_array_equal(fast, via_tie)
    np.testing.assert_array_equal(fast, literal[clear])
    finite = np.isfinite(fast)
    assert np.array_equal(bits(fast[finite]), bits(via_tie[finite]))
    assert np.array_equal(bits(fast[finite]), bits(literal[clear][finite]))
    # each tie entry, alone or among others, gives the tie value center + radius
    for entry in r[tie]:
        assert projector.g(entry) == c + projector.radius


@pytest.mark.parametrize("r, k", [(4, 16), (16, 64), (16, 256), (64, 256)])
def test_conjugated_vector_product_equals_conjugate_transpose_product(r, k):
    # the linear pass's V y with a C-ordered Vh: both forms run one gemv
    rng = np.random.default_rng(r * k)
    for _ in range(50):
        vh = random_complex(rng, (r, k), 1.0)
        y = random_complex(rng, r, 10.0 ** rng.uniform(-6, 6))
        assert np.array_equal(bits((y.conj() @ vh).conj()), bits(vh.conj().T @ y))


def flip_zero_signs(a):
    out = a.copy()
    parts = out.view(float)
    parts[parts == 0] *= -1.0
    return out


@pytest.mark.parametrize("m, k", [(2, 16), (4, 256)])
def test_zero_signs_in_vh_leave_linear_pass_bits(m, k):
    # real factors give the Khatri-Rao rows of Vh -0 parts. For a part a and
    # the other part b of an entry, numpy's division forms (a +- b*0) * (1/c)
    # and the reciprocal multiply a * (1/c) -+ b*0; an exact-zero a takes its
    # sign from that sum, so the two forms of Vh differ only in the sign of a
    # zero part whose input is -0
    # the explicit product form, which prepare_system builds for two users
    rng = np.random.default_rng(m * k)
    a = rng.standard_normal((m, k)).astype(complex)
    b = rng.standard_normal((m, k)).astype(complex)
    svd = structured_svd(economy_svd(a), economy_svd(b))
    z_tilde = svd.uh_dot(random_complex(rng, m * m, 1.0)) * (1.0 / svd.omega)
    vh_kr = khatri_rao_columns(economy_svd(b).Vh, economy_svd(a).Vh)
    v_n = np.linalg.norm(vh_kr, axis=1)[:, None]
    assert np.array_equal(bits(svd.Vh), bits(vh_kr * (1.0 / v_n)))
    divided = vh_kr / v_n
    differ = bits(divided) != bits(svd.Vh)
    negative_zero = (vh_kr.view(float) == 0) & np.signbit(vh_kr.view(float))
    assert differ.any() and not (differ & ~negative_zero).any()
    # with a message mean that has no zero part, no zero sign of Vh reaches the output
    flipped = EconomySVD(svd.U, svd.omega, flip_zero_signs(svd.Vh))
    for gamma in (1e-6, 0.1, 1e3):
        msg = ExtrinsicMessage(random_complex(rng, k, 1.0), gamma)
        want = lmmse_extrinsic(svd, z_tilde, msg)
        for vh_form in (flipped, EconomySVD(svd.U, svd.omega, divided)):
            got = lmmse_extrinsic(vh_form, z_tilde, msg)
            assert np.array_equal(bits(got.r), bits(want.r))
            assert got.gamma == want.gamma


def same_scalar(a, b):
    """Equal value, bits and type (np.float64, np.bool_)."""
    return type(a) is type(b) and np.array([a]).tobytes() == np.array([b]).tobytes()


@pytest.mark.parametrize("k", [16, 64, 256])
@pytest.mark.parametrize("m", [2, 4])
def test_ufunc_reductions_equal_their_method_forms(k, m):
    # the method forms run these same reductions through numpy's Python
    # wrappers; the loop calls them directly
    rng = np.random.default_rng(k + m)
    for scale in (1e-8, 1.0, 1e8):
        # sums of the linear pass's d (R = M^2 entries) and the projector's g' (K)
        for n in (m * m, k):
            x = 10.0 ** rng.uniform(-6, 6, n) * scale
            assert same_scalar(np.add.reduce(x), x.sum())
        # economy_svd's finiteness check on B (M x K) and on a tall input
        for a in (random_complex(rng, (m, k), scale), random_complex(rng, (k, m), scale)):
            for bad in (None, np.nan, np.inf):
                if bad is not None:
                    a[rng.integers(a.shape[0]), rng.integers(a.shape[1])] = bad
                finite = np.isfinite(a)
                assert same_scalar(np.logical_and.reduce(finite, axis=None), finite.all())
        # the product builders' largest omega and their all-kept test
        omega = 10.0 ** rng.uniform(-20, 2, m * m) * scale
        assert same_scalar(np.maximum.reduce(omega, initial=0.0), omega.max(initial=0.0))
        for kept in (omega > 1e-12 * omega.max(), np.ones(m * m, bool)):
            assert same_scalar(np.logical_and.reduce(kept), kept.all())
        # mmse_precoder's zero-channel test on an N x M effective channel
        h = random_complex(rng, (8 * m, m), scale)
        zero = np.zeros_like(h)
        one = zero.copy()
        one[-1, -1] = 1e-300j
        for a in (h, zero, one):
            assert same_scalar(np.logical_or.reduce(a, axis=None), a.any())
    empty = np.zeros(0)
    assert same_scalar(np.maximum.reduce(empty, initial=0.0), empty.max(initial=0.0))


@pytest.mark.parametrize("k", [16, 64, 256])
@pytest.mark.parametrize("projector", [UNIMODULAR, REACTIVE], ids=lambda p: p.name)
def test_one_distance_pass_equals_separate_g_and_g_prime(projector, k):
    # the pair's first half is g alone; its second half, which g_prime
    # returns, is the literal radius/(2|r - c|), capped at radius * CAP
    # where |r - c| < 1/(2 CAP)
    rng = np.random.default_rng(k)
    c, radius = projector.center, projector.radius
    special = np.array([c, c + 1j * TINY * 0.5, c + 1j * TINY, c + 1e-14, np.nan,
                        complex(np.nan, 1.0), np.inf, complex(1.0, -np.inf)])
    clean = c + random_complex(rng, k, 1.0)
    r = clean.copy()
    r[rng.choice(k, special.size, replace=False)] = special

    def literal_slope(vec):
        mag = np.abs(vec - c)
        with np.errstate(divide="ignore"):
            return np.where(mag < 0.5 / DERIVATIVE_CAP, radius * DERIVATIVE_CAP,
                            radius / (2.0 * mag))

    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for vec in (clean, r, special):
            want = literal_slope(vec)
            x, slope = projector.g(vec, with_prime=True)
            assert np.array_equal(bits(x), bits(projector.g(vec)))
            for got in (slope, projector.g_prime(vec)):
                assert np.array_equal(np.isnan(got), np.isnan(want))
                assert np.array_equal(bits(got)[~np.isnan(want)], bits(want)[~np.isnan(want)])
        for entry in special:
            want = float(literal_slope(np.array([entry]))[0])
            x, slope = projector.g(entry, with_prime=True)
            assert same_scalar(x, projector.g(entry)) and type(x) is complex
            for got in (slope, projector.g_prime(entry)):
                assert type(got) is float
                assert np.isnan(got) if np.isnan(want) else same_scalar(got, want)


def masked_structured_svd(svd_a, svd_b):
    """structured_svd with the kept-mask built every time, None unless it
    keeps every component, and U broadcast in C order, then copied to
    Fortran order."""
    vh_kr = khatri_rao_columns(svd_b.Vh, svd_a.Vh)
    v_n = np.sqrt(np.add.reduce((vh_kr.conj() * vh_kr).real, axis=1))
    omega_full = (svd_b.omega[:, None] * svd_a.omega).ravel() * v_n
    kept = omega_full > RANK_CUTOFF * np.maximum.reduce(omega_full, initial=0.0)
    if not np.logical_and.reduce(kept):
        return None
    u = svd_b.U[:, None, :, None] * svd_a.U[None, :, None, :]
    u = u.reshape(u.shape[0] * u.shape[1], omega_full.size)
    vh_kr *= (1.0 / v_n)[:, None]
    return EconomySVD(np.asfortranarray(u), omega_full, vh_kr)


def structured_cases():
    rng = np.random.default_rng(21)
    cases = [(random_complex(rng, (m, k), 1.0), random_complex(rng, (m, k), 1.0))
             for m, k in [(2, 16), (2, 256), (4, 256), (3, 5)]]
    # real factors give -0 parts in the Khatri-Rao rows
    cases.append((rng.standard_normal((4, 64)).astype(complex),
                  rng.standard_normal((2, 64)).astype(complex)))
    # disjoint row supports drop the grid components (0, 1) and (1, 0)
    cases.append((np.diag([2.0, 1.0]).astype(complex), np.diag([3.0, 1.0]).astype(complex)))
    cases.append((random_complex(rng, (2, 8), 1.0), np.zeros((2, 8), dtype=complex)))
    pairs = [(economy_svd(a), economy_svd(b)) for a, b in cases]
    # unit-norm Khatri-Rao rows and omega = (1, RANK_CUTOFF): the second
    # component sits exactly at the cutoff and is dropped
    eye = np.eye(2, dtype=complex)
    pairs.append((EconomySVD(eye, np.array([1.0, RANK_CUTOFF]), eye),
                  EconomySVD(np.ones((1, 1), dtype=complex), np.ones(1), np.ones((1, 2), complex))))
    names = ["2x16", "2x256", "4x256", "3x5", "real-4x64-2x64", "dropped", "zero-b", "at-cutoff"]
    return [pytest.param(a, b, id=name) for name, (a, b) in zip(names, pairs)]


@pytest.mark.parametrize("svd_a, svd_b", structured_cases())
def test_structured_svd_equals_its_mask_path(svd_a, svd_b):
    # one min and one max decide "every component kept", and U is the
    # transpose of a C-ordered broadcast of the transposed factors: omega,
    # Vh and U keep the bits and layout of the masked assembly, and a grid
    # the mask does not keep whole is declined, not truncated
    got, want = structured_svd(svd_a, svd_b), masked_structured_svd(svd_a, svd_b)
    assert (got is None) == (want is None)
    if want is None:
        return
    for x, y in ((got.U, want.U), (got.omega, want.omega), (got.Vh, want.Vh)):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes(order="A") == y.tobytes(order="A")
        if x.size:
            assert x.strides == y.strides
    assert got.U.flags.f_contiguous and got.Vh.flags.c_contiguous


def test_min_max_decision_equals_the_kept_mask():
    # the product builders' "every component kept", on values at the floor,
    # zeros, an empty omega and NaN
    rng = np.random.default_rng(22)
    top = 10.0 ** rng.uniform(-3, 3)
    cases = [10.0 ** rng.uniform(-20, 2, n) for n in (1, 4, 16, 64)]
    cases += [np.array([top, top * RANK_CUTOFF]),          # at the floor: dropped
              np.array([top, np.nextafter(top * RANK_CUTOFF, np.inf)]),
              np.array([top, 0.0, top]), np.zeros(4), np.zeros(0),
              np.array([top, np.nan]), np.array([np.nan])]
    for omega in cases:
        floor = RANK_CUTOFF * np.maximum.reduce(omega, initial=0.0)
        assert same_scalar(np.minimum.reduce(omega, initial=np.inf) > floor,
                           np.logical_and.reduce(omega > floor))


def test_math_sqrt_equals_numpy_sqrt_on_frobenius_sums():
    # precoding._frobenius and the precoder's sqrt(P) take math.sqrt, which
    # rounds a float64 as np.sqrt does; the sums come from the same two dot
    # products, here at 0, a subnormal, an overflow to inf and NaN
    rng = np.random.default_rng(23)
    arrays = [np.zeros((8, 2), dtype=complex), np.full((2, 2), 1e-162 + 1e-162j),
              np.full((4, 4), 3e-170j), np.full((8, 2), 1e200 + 0j),
              np.array([[np.nan + 1j, 1.0], [2.0, 3.0]]), np.array([[np.inf + 0j]])]
    arrays += [random_complex(rng, shape, 10.0 ** rng.uniform(-150, 150))
               for shape in [(8, 2), (32, 4), (32, 8), (2, 2)] for _ in range(20)]
    for a in arrays:
        x = a.ravel(order="K")
        with np.errstate(over="ignore"):
            s = x.real.dot(x.real) + x.imag.dot(x.imag)
            assert np.array([_frobenius(a)]).tobytes() == np.array([np.linalg.norm(a)]).tobytes()
        assert type(s) is np.float64
        root = math.sqrt(s)
        assert np.array([root]).tobytes() == np.array([np.sqrt(s)]).tobytes()
        assert np.array([root ** 2]).tobytes() == np.array([np.sqrt(s) ** 2]).tobytes()
        # the receiver scale ||F|| / sqrt(P) for powers across the float range
        for power in (5e-324, 1e-3, 1.0, 1e3, 1e308):
            with np.errstate(over="ignore"):
                want = float(np.sqrt(s) / np.sqrt(power))
            assert np.array([root / math.sqrt(power)]).tobytes() == np.array([want]).tobytes()
