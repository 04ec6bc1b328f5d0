"""Property tests of the projectors, the solver step and the precoder."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsbeam.channel import complex_normal
from irsbeam.linalg import economy_svd
from irsbeam.metrics import fit_error
from irsbeam.precoding import mmse_precoder
from irsbeam.projectors import UNIMODULAR, get_projector
from irsbeam.vamp import GAMMA_FLOOR, VampStep, prepare_system

SEEDS = st.integers(0, 2**32 - 1)
# Dense samples of each constraint set: unit phases, and -1/(1 + j chi) over the
# chi grid tan(angle / 2), which spaces the points evenly around the circle, plus
# its open-circuit point 0 (chi -> +-inf).
_ANGLES = np.linspace(-np.pi, np.pi, 2**14, endpoint=False)
SET_SAMPLES = {"unimodular": np.exp(1j * _ANGLES),
               "reactive": np.append(-1.0 / (1.0 + 1j * np.tan(_ANGLES / 2)), 0.0)}


def on_set(constraint, x):
    """Largest distance of the entries of x from the constraint's set."""
    if constraint == "unimodular":
        return float(np.max(np.abs(np.abs(x) - 1.0)))
    return float(np.max(np.abs(np.abs(x + 0.5) - 0.5)))


@settings(max_examples=200, deadline=None)
@given(constraint=st.sampled_from(["unimodular", "reactive"]), re=st.floats(-100.0, 100.0),
       im=st.one_of(st.just(0.0), st.floats(-100.0, 100.0)))
# the real axis of the reactive projector, on both sides of its center -1/2
@example(constraint="reactive", re=0.3, im=0.0)
@example(constraint="reactive", re=-0.8, im=0.0)
@example(constraint="unimodular", re=0.0, im=0.0)
# a subnormal distance from the center, and imaginary parts whose square underflows
@example(constraint="unimodular", re=5e-324, im=0.0)
@example(constraint="reactive", re=2.0, im=1e-309)
@example(constraint="reactive", re=0.3, im=1e-170)
def test_projector_is_a_nearest_point(constraint, re, im):
    r = complex(re, im)
    dist = abs(r - get_projector(constraint).g(r)) ** 2
    nearest = float(np.min(np.abs(r - SET_SAMPLES[constraint]) ** 2))
    assert dist <= nearest + 1e-12 * (1.0 + abs(r) ** 2)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, m=st.integers(1, 3), q=st.integers(1, 3), k=st.integers(2, 12),
       steps=st.integers(1, 8), constraint=st.sampled_from(["unimodular", "reactive"]))
def test_vamp_step_invariants(seed, m, q, k, steps, constraint):
    # both linear-pass branches occur: the dense one when m*q > k
    rng = np.random.default_rng(seed)
    svd, z_tilde = prepare_system(economy_svd(complex_normal(rng, m, k)),
                                  economy_svd(complex_normal(rng, q, k)),
                                  complex_normal(rng, m, q))
    projector = get_projector(constraint)
    step = VampStep(projector, projector.initial_point(k, rng))
    for _ in range(steps):
        gamma_tilde, gamma_hat = step(svd, z_tilde)
        assert np.isfinite(gamma_tilde) and gamma_tilde >= GAMMA_FLOOR
        assert step.gamma_tilde_prev == gamma_tilde
        assert np.isfinite(gamma_hat)
        assert np.isfinite(step.msg.gamma) and step.msg.gamma > 0
        assert np.all(np.isfinite(step.msg.r)) and np.all(np.isfinite(step.x_damped))
        assert on_set(constraint, projector.g(step.x_damped)) <= 1e-12


def step_history(a, b, z, projector, x0, steps):
    """(gamma_tilde, gamma_hat, message mean, message precision, damped iterate)
    after each of `steps` VampSteps on the system (A, B, Z) from x0."""
    svd, z_tilde = prepare_system(economy_svd(a), economy_svd(b), z)
    step = VampStep(projector, x0)
    history = []
    for _ in range(steps):
        gamma_tilde, gamma_hat = step(svd, z_tilde)
        history.append((gamma_tilde, gamma_hat, step.msg.r, step.msg.gamma, step.x_damped))
    return history


def assert_same_history(got, want, rotation):
    """`got` equals `want` to 1e-9 relative, its vectors multiplied by `rotation`."""
    def close(u, v):
        return np.linalg.norm(u - v) <= 1e-9 * np.linalg.norm(v)

    for (gt, gh, r, g, x), (wt, wh, wr, wg, wx) in zip(got, want, strict=True):
        assert close(gt, wt) and close(gh, wh) and close(g, wg)
        assert close(r, rotation * wr) and close(x, rotation * wx)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, m=st.integers(1, 3), q=st.integers(1, 3), k=st.integers(2, 12),
       steps=st.integers(1, 6), theta=st.floats(-np.pi, np.pi))
def test_unimodular_vamp_step_is_rotation_invariant(seed, m, q, k, steps, theta):
    # the linear pass is linear in (Z, r) and the unit-circle projector commutes
    # with a rotation, so rotating Z and the start rotates every iterate
    rng = np.random.default_rng(seed)
    a, b, z = complex_normal(rng, m, k), complex_normal(rng, q, k), complex_normal(rng, m, q)
    x0 = UNIMODULAR.initial_point(k, rng)
    turn = np.exp(1j * theta)
    want = step_history(a, b, z, UNIMODULAR, x0, steps)
    got = step_history(a, b, turn * z, UNIMODULAR, turn * x0, steps)
    assert_same_history(got, want, rotation=turn)


PRECODER_CASES = dict(seed=SEEDS, n=st.integers(2, 8), m_frac=st.floats(0.0, 1.0),
                      power=st.floats(1e-3, 1e3),
                      noise_var=st.sampled_from([0.0, 1e-13, 1e-6, 0.1, 1.0]),
                      scale=st.floats(-6.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(**PRECODER_CASES)
# M < N with M*noise_var/P below rounding against ||h||^2: the N x N Gram
# matrix H H^H + (M noise_var/P) I would be singular to working precision
@example(seed=2, n=2, m_frac=0.0, power=601.0, noise_var=1e-13, scale=0.39453125)
def test_precoder_power_is_exact(seed, n, m_frac, power, noise_var, scale):
    m = 1 + int(m_frac * (n - 2))
    h = 10.0**scale * complex_normal(np.random.default_rng(seed), n, m)
    sol = mmse_precoder(h, power, noise_var)
    assert abs(float(np.linalg.norm(sol.F) ** 2) - power) <= 1e-9 * power
    assert np.isfinite(sol.alpha) and sol.alpha > 0


@settings(max_examples=100, deadline=None)
@given(**PRECODER_CASES)
# nearly noise-free: the residue alpha H^H F - I is rounding-sized, so each
# value carries about 1e-12 of the objective in rounding (a gap of 1.053e-12)
@example(seed=39444741, n=6, m_frac=1.0, power=175.0, noise_var=1e-13, scale=1.0)
def test_precoder_error_is_the_fit_error(seed, n, m_frac, power, noise_var, scale):
    # the objective the precoder reads off its M x M Gram matrix is the sum-MSE
    # that metrics.fit_error scores from the N x M products
    m = 1 + int(m_frac * (n - 2))
    h = 10.0**scale * complex_normal(np.random.default_rng(seed), n, m)
    sol = mmse_precoder(h, power, noise_var)
    scored = fit_error(sol.alpha, h, sol.F, noise_var)
    if noise_var > 0:
        # the objective's rounding scale: M^2 residue entries, each known to
        # eps times the condition number of H^H H; 1e-12 relative above it
        rounding = (m * np.finfo(float).eps * np.linalg.cond(h) ** 2) ** 2
        assert abs(sol.error - scored) <= max(1e-12 * scored, rounding)
    else:
        # zero forcing: the objective is exactly 0 and both values are the
        # square of rounding residue
        assert sol.error <= 1e-20 and scored <= 1e-20
