"""Floating-point identities the per-iteration path relies on for its bits.

The alternating loop multiplies complex arrays by the reciprocal of a
positive real instead of dividing by it, inverts the precoder's Gram matrix
with inv instead of solve(G, I), takes the projector's tie branch only
when a tie exists, forms Vh^H y as (y^H Vh)^H, takes the precoder's
Frobenius norms as two dot products, calls the ufunc reductions in place of
the array methods that wrap them, takes the projector and its derivative
(the literal radius/(2|r - center|), capped) from one |r - center|, decides
"every component kept" in the product builder from one min and one max,
and takes the precoder's square roots with math.sqrt. Each is bit-equal to
the form it replaced only through the identities checked here, on numpy's
SIMD kernels and on OpenBLAS's, so if a numpy or CPU change ever moves the
golden CSVs, these name the cause. CI runs this file again under other SIMD
and BLAS kernels.
"""

import math

import numpy as np
import pytest

from irsbeam.linalg import RANK_CUTOFF
from irsbeam.precoding import _frobenius
from irsbeam.projectors import DERIVATIVE_CAP, REACTIVE, UNIMODULAR

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
        # the product builder's largest omega and its all-kept test
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


def test_min_max_decision_equals_the_kept_mask():
    # the product builder's "every component kept", on values at the floor,
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
