import numpy as np
import pytest

from irsbeam.oracles import grid_reactance
from irsbeam.projectors import REACTIVE, UNIMODULAR, get_projector


def wirtinger_fd(func, r, h=1e-6):
    d_re = (func(r + h) - func(r - h)) / (2 * h)
    d_im = (func(r + 1j * h) - func(r - 1j * h)) / (2 * h)
    return 0.5 * (d_re - 1j * d_im)


def test_unimodular_normalizes():
    assert UNIMODULAR.g(3 + 4j) == pytest.approx(0.6 + 0.8j)


def test_unimodular_fixed_point():
    assert UNIMODULAR.g(1.0) == pytest.approx(1.0)


def test_unimodular_idempotent_on_unit_circle():
    rng = np.random.default_rng(0)
    u = np.exp(2j * np.pi * rng.random(50))
    assert np.allclose(UNIMODULAR.g(u), u, atol=1e-15)


def test_unimodular_zero_tiebreak():
    assert UNIMODULAR.g(0.0) == 1.0 + 0j


def test_unimodular_derivative_values():
    assert UNIMODULAR.g_prime(2.0) == pytest.approx(0.25)
    assert UNIMODULAR.g_prime(1j) == pytest.approx(0.5)
    assert UNIMODULAR.g_prime(0.1) == pytest.approx(5.0)


def test_unimodular_derivative_capped_at_origin():
    assert UNIMODULAR.g_prime(0.0) == pytest.approx(1e12)
    assert REACTIVE.g_prime(-0.5) == pytest.approx(0.5e12)   # radius times the cap


def test_unimodular_minimality_against_grid():
    rng = np.random.default_rng(1)
    r = (rng.standard_normal(500) + 1j * rng.standard_normal(500)) * rng.uniform(0.1, 3, 500)
    theta = 2 * np.pi * np.arange(10_000) / 10_000
    proj_dist = np.abs(r - UNIMODULAR.g(r))
    for lo in range(0, 500, 100):
        chunk = r[lo:lo + 100]
        grid_dist = np.abs(chunk[:, None] - np.exp(1j * theta)[None, :]).min(axis=1)
        assert np.all(proj_dist[lo:lo + 100] <= grid_dist + 1e-12)


def reactance_point(chi):
    """The reactive-load reflection coefficient of reactance chi."""
    return -1 / (1 + 1j * chi)


def beats_reactance_grid(r):
    v = REACTIVE.g(r)
    chi_grid = grid_reactance(r, points=100_000)
    return abs(r - v) ** 2 <= abs(r - reactance_point(chi_grid)) ** 2 + 1e-12


def test_reactance_golden_ratio_case():
    assert REACTIVE.g(1j) == pytest.approx(reactance_point((1 + np.sqrt(5)) / 2), abs=1e-12)


def test_reactance_against_grid_oracle():
    for r in (1j, 1 + 1j, -0.3 + 0.8j, 2 - 0.5j):
        assert beats_reactance_grid(r)


def test_reactance_degenerate_real_axis():
    assert REACTIVE.g(-1.0) == -1.0   # left of the center: chi = 0
    assert REACTIVE.g(0.5) == 0.0     # right of it: the open-circuit point, |chi| -> inf
    assert REACTIVE.g(-0.5) == 0.0    # the center itself: the tie value center + radius


def test_reactance_second_value():
    assert REACTIVE.g(1 + 1j) == pytest.approx(reactance_point((3 + np.sqrt(13)) / 2),
                                               abs=1e-12)


def test_reactive_project_value():
    got = REACTIVE.g(1j)
    assert got == pytest.approx(-0.2763932 + 0.4472136j, abs=1e-6)
    # the load read back from the point, chi = -Im(1/v)
    assert -(1 / got).imag == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)


def test_reactive_fixed_point():
    assert REACTIVE.g(-1.0) == pytest.approx(-1.0)


def test_reactive_conjugate_symmetry():
    rng = np.random.default_rng(2)
    r = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    assert np.allclose(REACTIVE.g(np.conj(r)), np.conj(REACTIVE.g(r)), atol=1e-13)


def test_reactive_sign_property():
    rng = np.random.default_rng(3)
    r = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    out = REACTIVE.g(r)
    assert np.all(np.imag(out) * np.imag(r) >= 0)


def test_reactive_output_on_load_circle():
    rng = np.random.default_rng(4)
    r = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    out = REACTIVE.g(r)
    # the reactive set is the circle |v + 1/2| = 1/2
    assert np.allclose(np.abs(out + 0.5), 0.5, atol=1e-9)
    assert np.all(np.abs(out[r.imag != 0]) < 1.0)


def test_reactive_minimality_against_grid():
    rng = np.random.default_rng(5)
    r = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    for rv in r:
        assert beats_reactance_grid(rv)


def test_reactive_derivative_matches_finite_differences():
    for r in (1j, 2 + 3j, -0.7 + 0.2j, 0.3 - 1.4j):
        fd = abs(wirtinger_fd(REACTIVE.g, r))
        assert REACTIVE.g_prime(r) == pytest.approx(fd, abs=1e-5)


def test_reactive_derivative_conjugate_equal():
    rng = np.random.default_rng(6)
    r = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    assert np.allclose(REACTIVE.g_prime(r), REACTIVE.g_prime(np.conj(r)), atol=1e-12)


def test_reactive_derivative_real_axis_fallback():
    for r in (-1.0, -0.2, 0.7):
        val = REACTIVE.g_prime(r)
        assert np.isfinite(val) and val >= 0


def test_reactive_derivative_tiny_imaginary_part():
    # Im(r) so small that its square underflows
    for r in (0.3 + 1e-170j, 2 + 1e-309j, -0.5 + 1e-320j):
        val = REACTIVE.g_prime(r)
        assert np.isfinite(val) and val > 0
    for r in (0.3 + 1e-170j, 2 + 1e-309j):
        fd = abs(wirtinger_fd(REACTIVE.g, r))
        assert REACTIVE.g_prime(r) == pytest.approx(fd, rel=1e-6)


def test_nan_propagates():
    # numpy also flags the NaN division as invalid; this checks the value
    for projector in (UNIMODULAR, REACTIVE):
        for r in (complex("nan+1j"), complex(1, float("nan"))):
            with np.errstate(invalid="ignore"):
                assert np.isnan(projector.g(r)), (projector.name, r)
            assert np.isnan(projector.g_prime(r)), (projector.name, r)


def test_projector_registry():
    assert get_projector("unimodular") is UNIMODULAR
    assert get_projector("reactive") is REACTIVE
    with pytest.raises(ValueError):
        get_projector("nope")
    rng = np.random.default_rng(8)
    start = UNIMODULAR.initial_point(16, rng)
    assert np.allclose(np.abs(start), 1.0)
    assert np.allclose(REACTIVE.initial_point(4, rng), -np.ones(4))
