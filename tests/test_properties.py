"""Property tests of the projectors, the solver step and the precoder."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsbeam.precoding import mmse_precoder
from irsbeam.projectors import get_projector
from irsbeam.vamp import (ExtrinsicMessage, VampConfig, VampDiagnostics, VampState,
                          prepare_system, vamp_step)

SEEDS = st.integers(0, 2**32 - 1)
# Dense samples of each constraint set: unit phases, and -1/(1 + j chi) over the
# chi grid tan(angle / 2), which spaces the points evenly around the circle, plus
# its open-circuit point 0 (chi -> +-inf).
_ANGLES = np.linspace(-np.pi, np.pi, 2**14, endpoint=False)
SET_SAMPLES = {"unimodular": np.exp(1j * _ANGLES),
               "reactive": np.append(-1.0 / (1.0 + 1j * np.tan(_ANGLES / 2)), 0.0)}


def cplx(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


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
       steps=st.integers(1, 8), constraint=st.sampled_from(["unimodular", "reactive"]),
       rho=st.floats(0.3, 1.0), gamma_0=st.floats(0.0, 10.0))
def test_vamp_step_invariants(seed, m, q, k, steps, constraint, rho, gamma_0):
    # both linear-pass branches occur: the dense one when m*q > k
    rng = np.random.default_rng(seed)
    svd, z_tilde = prepare_system(cplx(rng, m, k), cplx(rng, q, k), cplx(rng, m, q))
    projector = get_projector(constraint)
    cfg = VampConfig(rho=rho, gamma_0=gamma_0)
    x0 = projector.initial_point(k, rng)
    state = VampState(ExtrinsicMessage(x0.copy(), max(cfg.gamma_0, cfg.gamma_floor)), x0.copy())
    diag = VampDiagnostics()
    for step in range(1, steps + 1):
        gamma_tilde, gamma_hat = vamp_step(svd, z_tilde, state, projector, cfg, diag)
        assert state.passes == step
        assert np.isfinite(gamma_tilde) and gamma_tilde >= cfg.gamma_floor
        assert state.gamma_tilde_prev == gamma_tilde
        assert np.isfinite(gamma_hat)
        assert np.isfinite(state.msg.gamma) and state.msg.gamma > 0
        assert np.all(np.isfinite(state.msg.r)) and np.all(np.isfinite(state.x_damped))
        assert on_set(constraint, projector.g(state.x_damped)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 8), m_frac=st.floats(0.0, 1.0),
       power=st.floats(1e-3, 1e3), noise_var=st.sampled_from([0.0, 1e-13, 1e-6, 0.1, 1.0]),
       scale=st.floats(-6.0, 1.0))
# M < N with M*noise_var/P below rounding against ||h||^2: the Gram matrix is
# singular to working precision
@example(seed=2, n=2, m_frac=0.0, power=601.0, noise_var=1e-13, scale=0.39453125)
def test_precoder_power_is_exact(seed, n, m_frac, power, noise_var, scale):
    m = 1 + int(m_frac * (n - 2))
    h = 10.0**scale * cplx(np.random.default_rng(seed), n, m)
    sol = mmse_precoder(h, power, noise_var)
    assert abs(float(np.linalg.norm(sol.F) ** 2) - power) <= 1e-9 * power
    assert np.isfinite(sol.alpha) and sol.alpha > 0
