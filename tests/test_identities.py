"""Floating-point identities the per-iteration path relies on for its bits.

The alternating loop multiplies complex arrays by the reciprocal of a
positive real instead of dividing by it, inverts the precoder's Gram matrix
with inv instead of solve(G, I), and takes the projector's tie branch only
when a tie exists. Each is bit-equal to the form it replaced only through
the identities checked here, on numpy's SIMD kernels and on OpenBLAS's, so
if a numpy or CPU change ever moves the golden CSVs, these name the cause.
CI runs this file again under other SIMD and BLAS kernels.
"""

import numpy as np
import pytest

from irsbeam.projectors import REACTIVE, UNIMODULAR

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
