from dataclasses import fields

import numpy as np
import pytest

from irsbeam import linalg
from irsbeam.altopt import OptimizerConfig
from irsbeam.channel import complex_normal
from irsbeam.linalg import (RANK_CUTOFF, EconomySVD, KhatriRaoSVD, economy_svd,
                            khatri_rao_columns, khatri_rao_svd)
from irsbeam.oracles import dense_lmmse, explicit_product_form
from irsbeam.projectors import UNIMODULAR, Projector
from irsbeam.vamp import (DAMPING, GAMMA_FLOOR, INITIAL_PRECISION, ExtrinsicMessage,
                          VampDiagnostics, VampStep, lmmse_extrinsic, prepare_system)


def first_step(z_tilde, gamma_tilde=1.0):
    """One VampStep on D = sqrt(gamma_tilde) I from a random start with
    message precision 0.5. With every singular value sqrt(gamma_tilde) the
    linear pass hands on r_tilde = z_tilde with precision gamma_tilde, so the
    projector pass sees (z_tilde, gamma_tilde) up to rounding."""
    n = z_tilde.size
    svd = EconomySVD(np.eye(n, dtype=complex), np.full(n, np.sqrt(gamma_tilde)),
                     np.eye(n, dtype=complex))
    x0 = complex_normal(np.random.default_rng(11), n)
    step = VampStep(UNIMODULAR, x0)
    step.msg = ExtrinsicMessage(x0, 0.5)
    gamma_tilde, gamma_hat = step(svd, np.asarray(z_tilde, dtype=complex))
    return step, gamma_tilde, gamma_hat


def run_steps(a, b, z, passes, seed):
    """A VampStep after `passes` steps on the system (A, B, Z), from a
    unit-modulus start drawn from default_rng(seed), and each step's
    (gamma_tilde, gamma_hat, damped iterate)."""
    svd, z_tilde = prepare_system(economy_svd(np.asarray(a, dtype=complex)),
                                  economy_svd(np.asarray(b, dtype=complex)), z)
    step = VampStep(UNIMODULAR, UNIMODULAR.initial_point(np.shape(a)[1],
                                                         np.random.default_rng(seed)))
    history = [(*step(svd, z_tilde), step.x_damped) for _ in range(passes)]
    return step, history


def test_lmmse_identity_hand_case():
    # D = I, gamma = 1: the extrinsic mean is the weighted
    # observation itself and the extrinsic precision is 1
    n = 4
    svd = economy_svd(np.eye(n))
    rng = np.random.default_rng(0)
    z_tilde = complex_normal(rng, n)
    msg = ExtrinsicMessage(complex_normal(rng, n), 1.0)
    out = lmmse_extrinsic(svd, z_tilde, msg)
    assert np.allclose(out.r, z_tilde, atol=1e-12)
    assert out.gamma == pytest.approx(1.0)


def test_lmmse_prior_dominated_limit():
    # as gamma -> inf the posterior mean pins to r, but the extrinsic mean
    # tends to r + (K/R) V Diag(w^2/<w^2>) (z_tilde - V^H r): the d/<d>
    # normalization keeps the extrinsic step O(1) in gamma
    rng = np.random.default_rng(1)
    d = complex_normal(rng, 3, 5)
    svd = economy_svd(d)
    z_tilde = (svd.U.conj().T @ complex_normal(rng, 3)) / svd.omega
    r = complex_normal(rng, 5)
    out = lmmse_extrinsic(svd, z_tilde, ExtrinsicMessage(r, 1e12))
    w2 = svd.omega**2
    step = (5 / svd.rank) * (svd.Vh.conj().T @ ((w2 / w2.mean()) * (z_tilde - svd.Vh @ r)))
    assert np.abs(out.r - (r + step)).max() < 1e-9
    # the extrinsic precision saturates at (R/K) <w^2>
    assert out.gamma == pytest.approx((svd.rank / 5) * w2.mean(), rel=1e-9)


def test_lmmse_matches_dense_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        m, q, k = rng.integers(1, 6), rng.integers(1, 6), rng.integers(2, 9)
        d = khatri_rao_columns(complex_normal(rng, q, k), complex_normal(rng, m, k))
        z = complex_normal(rng, m * q)
        r = complex_normal(rng, k)
        gamma = float(rng.uniform(0.05, 2.0))
        # a random scale of D, and so of every singular value against gamma
        d = np.sqrt(rng.uniform(0.2, 3.0)) * d
        svd = economy_svd(d)
        z_tilde = (svd.U.conj().T @ z) / svd.omega
        got = lmmse_extrinsic(svd, z_tilde, ExtrinsicMessage(r, gamma))
        _, _, r_ref, gamma_ref = dense_lmmse(d, z, r, gamma)
        worst = max(worst, float(np.abs(got.r - r_ref).max()), abs(got.gamma - gamma_ref))
    assert worst < 1e-8


def test_lmmse_clamps_when_components_exceed_unknowns():
    # R = 4 components against K = 2 unknowns makes K/R - <d> go negative
    rng = np.random.default_rng(3)
    vh = complex_normal(rng, 4, 2)
    svd = EconomySVD(np.eye(4), np.array([5.0, 4.0, 3.0, 2.0]), vh)
    diag = VampDiagnostics()
    out = lmmse_extrinsic(svd, complex_normal(rng, 4),
                          ExtrinsicMessage(complex_normal(rng, 2), 1e-6), diag)
    assert out.gamma == pytest.approx(1e-11)
    assert diag.lmmse_clamps == 1


def test_lmmse_shape_checks():
    svd = economy_svd(np.eye(3))
    msg = ExtrinsicMessage(np.zeros(3, complex), 1.0)
    with pytest.raises(ValueError):
        lmmse_extrinsic(svd, np.zeros(2, complex), msg)
    with pytest.raises(ValueError):
        lmmse_extrinsic(svd, np.zeros(3, complex), ExtrinsicMessage(np.zeros(4, complex), 1.0))


def test_projector_pass_unimodular_fixed_point():
    # the projector pass of the first (undamped) step leaves a unit-modulus
    # observation where it is
    rng = np.random.default_rng(5)
    u = np.exp(2j * np.pi * rng.random(8))
    step, gamma_tilde, _ = first_step(u, 0.3)
    assert np.allclose(step.x_damped, u, atol=1e-14)
    # the step records its precision, which marks the next step as damped
    assert step.gamma_tilde_prev == gamma_tilde


def test_projector_pass_derived_values():
    # omega^2 = 0.3 sets gamma_tilde = 0.3; |r| = 2 gives <g'> = 1/4, so
    # gamma_hat = 0.25/0.3 > gamma_tilde and nothing clamps
    z_tilde = np.array([2.0, 2.0j])
    step, gamma_tilde, gamma_hat = first_step(z_tilde, 0.3)
    assert gamma_tilde == pytest.approx(0.3)
    assert gamma_hat == pytest.approx(0.25 / 0.3)
    assert np.allclose(step.x_damped, [1.0, 1.0j])
    assert step.msg.gamma == pytest.approx(gamma_hat - gamma_tilde)
    want = (gamma_hat * step.x_damped - gamma_tilde * z_tilde) / (gamma_hat - gamma_tilde)
    assert np.allclose(step.msg.r, want)
    assert step.gamma_tilde_prev == gamma_tilde
    assert step.diagnostics.projector_clamps == 0


def test_projector_pass_clamp_path():
    # unit-modulus inputs give <g'> = 1/2; omega^2 = 2 sets gamma_tilde = 2, which makes
    # gamma_hat = 1/4 < gamma_tilde, so the extrinsic precision clamps
    u = np.array([1.0 + 0j, 1j])
    step, gamma_tilde, gamma_hat = first_step(u, 2.0)
    assert gamma_tilde == pytest.approx(2.0)
    assert gamma_hat == pytest.approx(0.25)
    assert step.msg.gamma == pytest.approx(1e-11)
    assert np.array_equal(step.msg.r, step.x_damped)
    assert step.diagnostics.projector_clamps == 1


def test_steps_count_their_clamps():
    # D = B * A = sqrt(2) I for A = [1, 1] and B = sqrt(2) I, with the
    # unit-modulus observation of test_projector_pass_clamp_path: both passes
    # clamp, the damped second as the first, and the step counts both
    a = np.ones((1, 2))
    b = np.sqrt(2.0) * np.eye(2)
    step, _ = run_steps(a, b, np.array([[1.0 + 0j, 1j]]), 2, seed=0)
    assert step.diagnostics.projector_clamps == 2
    assert step.diagnostics.lmmse_clamps == 0


def test_projector_pass_takes_g_and_g_prime_from_one_call(monkeypatch):
    # the projector pass asks g for the pair instead of calling g_prime
    asked = []
    g = Projector.g

    def counted(self, r_tilde, with_prime=False):
        asked.append(with_prime)
        return g(self, r_tilde, with_prime)

    monkeypatch.setattr(Projector, "g", counted)
    monkeypatch.setattr(Projector, "g_prime", lambda self, r: pytest.fail("g_prime called"))
    first_step(complex_normal(np.random.default_rng(5), 16))
    assert asked == [True]


def test_steps_start_and_damp_with_the_module_constants():
    # the first message has precision INITIAL_PRECISION; from the second step
    # on, the linear-pass precision and the iterate are blended with DAMPING
    rng = np.random.default_rng(13)
    n = 6
    svd = EconomySVD(np.eye(n, dtype=complex), np.full(n, 1.5), np.eye(n, dtype=complex))
    x0 = UNIMODULAR.initial_point(n, rng)
    step = VampStep(UNIMODULAR, x0)
    assert (step.msg.gamma, step.gamma_tilde_prev) == (INITIAL_PRECISION, None)
    assert np.array_equal(step.msg.r, x0) and np.array_equal(step.x_damped, x0)
    assert step.msg.r is not x0 and step.x_damped is not x0
    z_tilde = complex_normal(rng, n)
    step(svd, z_tilde)
    tilde = lmmse_extrinsic(svd, z_tilde, step.msg)
    prev_gamma, prev_x = step.gamma_tilde_prev, step.x_damped
    gamma_tilde, _ = step(svd, z_tilde)
    assert gamma_tilde == DAMPING * tilde.gamma + (1.0 - DAMPING) * prev_gamma
    assert np.array_equal(step.x_damped,
                          DAMPING * UNIMODULAR.g(tilde.r) + (1.0 - DAMPING) * prev_x)


def test_prepare_system_structured_vs_dense_paths():
    rng = np.random.default_rng(6)
    # K = 8 >= R_a*R_b = 4: the product form, kept in its factors;
    # K = 3 < R_a*R_b = 4: the dense SVD of D
    for k, form in ((8, KhatriRaoSVD), (3, EconomySVD)):
        a, b, z = complex_normal(rng, 2, k), complex_normal(rng, 2, k), complex_normal(rng, 2, 2)
        svd_a, svd_b = economy_svd(a), economy_svd(b)
        svd, z_tilde = prepare_system(svd_a, svd_b, z)
        assert type(svd) is form
        y = z.flatten(order="F")
        if form is EconomySVD:
            assert np.allclose(svd.U.conj().T @ svd.U, np.eye(svd.rank), atol=1e-12)
            assert np.array_equal(z_tilde, (svd.U.conj().T @ y) / svd.omega)
        else:
            ref = explicit_product_form(svd_a, svd_b)
            z_ref = (ref.U.conj().T @ y) / ref.omega
            assert np.linalg.norm(svd.omega - ref.omega) <= 1e-12 * np.linalg.norm(ref.omega)
            assert np.linalg.norm(z_tilde - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
        d = khatri_rao_columns(b, a)
        assert np.linalg.norm(svd.reconstruct() - d) < 1e-9 * np.linalg.norm(d)
    with pytest.raises(ValueError):
        prepare_system(economy_svd(np.zeros((2, 4))), economy_svd(complex_normal(rng, 2, 4)),
                       np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^prepare_system: Z is \(2, 3\), expected \(2, 2\)$"):
        prepare_system(economy_svd(complex_normal(rng, 2, 4)),
                       economy_svd(complex_normal(rng, 2, 4)), np.zeros((2, 3)))


# Reference for the bit-identity test below, on the systems prepare_system
# takes to its dense branch (a grid with a component under the cutoff, or
# with more components than unknowns): the SVD of D rebuilt from both factor
# SVDs, a wide matrix factored through its transpose.
def _reference_economy_svd(a):
    if a.shape[0] < a.shape[1]:
        # a^T = U S Vh gives a = Vh^T S U^T
        ut, omega, vht = np.linalg.svd(a.T, full_matrices=False)
        u, vh = vht.T, ut.T
    else:
        u, omega, vh = np.linalg.svd(a, full_matrices=False)
    if omega.size and omega[0] > 0:
        keep = omega > RANK_CUTOFF * omega[0]
        u, omega, vh = u[:, keep], omega[keep], vh[keep]
    else:
        u, omega, vh = u[:, :0], omega[:0], vh[:0]
    return EconomySVD(u, omega, vh)


def _reference_prepare_system(svd_a, svd_b, z):
    a = (svd_a.U * svd_a.omega) @ svd_a.Vh
    b = (svd_b.U * svd_b.omega) @ svd_b.Vh
    svd = _reference_economy_svd(khatri_rao_columns(b, a))
    return svd, (svd.U.conj().T @ z.flatten(order="F")) / svd.omega


def test_prepare_system_bits_match_reference_assembly():
    # U and Vh reach gemv in z_tilde and the linear pass, where their memory
    # order picks the BLAS kernel, so their layout is pinned as well as their bits
    rng = np.random.default_rng(12)

    def factor(m, k):  # M x K and Fortran-ordered, like B and H_su^H in altopt
        return complex_normal(rng, k, m).T

    # disjoint row supports: Khatri-Rao rows (0, 1) and (1, 0) of the right
    # factors vanish, so the grid is dropped to the SVD of the rank-2 D
    blocks = np.zeros((2, 4), dtype=complex)
    blocks[0, :2], blocks[1, 2:] = complex_normal(rng, 2), complex_normal(rng, 2)
    # the product form stays in its factors, checked against the one written
    # out in test_factored_linear_pass_matches_explicit_form
    cases = [("dense", factor(4, 9), factor(4, 9), complex_normal(rng, 4, 4)),
             ("dropped", blocks.copy(order="F"),
              (blocks * complex_normal(rng, 1, 4)).copy(order="F"), complex_normal(rng, 2, 2))]
    for branch, a, b, z in cases:
        # both factors arrive factored, as the alternating loop hands them over
        svd_a, svd_b, ref_b = economy_svd(a), economy_svd(b), _reference_economy_svd(b)
        svd, z_tilde = prepare_system(svd_a, svd_b, z)
        ref, ref_z = _reference_prepare_system(svd_a, ref_b, z)
        n_components = a.shape[0] * b.shape[0]
        assert {"dense": n_components > a.shape[1],
                "dropped": svd.rank == 2 and khatri_rao_svd(svd_a, svd_b) is None}[branch]
        for name, got, want in (("B's U", svd_b.U, ref_b.U), ("B's Vh", svd_b.Vh, ref_b.Vh),
                                ("B's omega", svd_b.omega, ref_b.omega),
                                ("U", svd.U, ref.U), ("omega", svd.omega, ref.omega),
                                ("Vh", svd.Vh, ref.Vh), ("z_tilde", z_tilde, ref_z)):
            assert got.shape == want.shape, (branch, name)
            assert got.tobytes() == want.tobytes(), (branch, name)
            assert got.strides == want.strides, (branch, name)
            assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
                (want.flags.c_contiguous, want.flags.f_contiguous), (branch, name)
        assert svd.U.flags.f_contiguous, branch


def _factored_cases():
    rng = np.random.default_rng(31)
    cases = [(f"{m_a}x{m_b}x{k}", complex_normal(rng, m_a, k), complex_normal(rng, m_b, k),
              m_a * m_b)
             for m_a, m_b, k in [(3, 3, 16), (4, 4, 64), (8, 8, 256), (4, 2, 64),
                                 (4, 4, 16),  # R = K
                                 (1, 1, 4), (2, 1, 9), (2, 2, 16), (2, 2, 256)]]
    return [pytest.param(a, b, rank, id=name) for name, a, b, rank in cases]


@pytest.mark.parametrize("a, b, rank", _factored_cases())
def test_factored_linear_pass_matches_explicit_form(a, b, rank):
    # at every user count prepare_system keeps the product form in its
    # factors; its omega, z_tilde and linear pass must be those of the form
    # written out
    rng = np.random.default_rng(a.shape[1])
    z = complex_normal(rng, a.shape[0], b.shape[0])
    svd_a, svd_b = economy_svd(a), economy_svd(b)
    svd, z_tilde = prepare_system(svd_a, svd_b, z)
    explicit = explicit_product_form(svd_a, svd_b)
    u, omega, vh = explicit.U, explicit.omega, explicit.Vh
    k = a.shape[1]
    assert svd.rank == omega.size == rank
    assert isinstance(svd, KhatriRaoSVD)

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    z_ref = (u.conj().T @ z.flatten(order="F")) / omega
    assert rel(svd.omega, omega) <= 1e-12
    assert rel(z_tilde, z_ref) <= 1e-12
    for gamma in (1e-3, 0.1, 10.0):
        r = complex_normal(rng, k)
        out = lmmse_extrinsic(svd, z_tilde, ExtrinsicMessage(r, gamma))
        d = omega**2 / (omega**2 + gamma)
        ratio = k / rank
        r_ref = r + ratio * vh.conj().T @ ((d / d.mean()) * (z_ref - vh @ r))
        gamma_ref = gamma * d.mean() / (ratio - d.mean())
        assert rel(out.r, r_ref) <= 1e-12
        assert abs(out.gamma - gamma_ref) <= 1e-12 * gamma_ref


def _dropped_cases():
    rng = np.random.default_rng(32)
    cases = []
    # block supports: row j of either factor lives on columns block*j to
    # block*(j+1) - 1, so the Khatri-Rao rows (i, j) with i != j of the
    # right factors vanish; D has one nonzero row per user, rank M
    for name, m, block in (("two-users", 2, 3), ("three-users", 3, 4), ("four-users", 4, 4)):
        mask = np.kron(np.eye(m), np.ones((1, block)))
        cases.append(pytest.param(mask * complex_normal(rng, m, m * block),
                                  mask * complex_normal(rng, m, m * block), id=name))
    return cases


@pytest.mark.parametrize("a, b", _dropped_cases())
def test_rank_dropped_grid_takes_the_dense_branch(a, b):
    # a kron grid with components under the rank cutoff is declined by the
    # product builder, never truncated, and prepare_system takes the exact
    # SVD of D, whose linear pass is the dense estimator's
    svd_a, svd_b = economy_svd(a), economy_svd(b)
    assert svd_a.rank * svd_b.rank <= a.shape[1]
    assert khatri_rao_svd(svd_a, svd_b) is None
    rng = np.random.default_rng(a.size)
    z = complex_normal(rng, a.shape[0], b.shape[0])
    d = khatri_rao_columns(b, a)
    with np.errstate(divide="raise", invalid="raise"):
        svd, z_tilde = prepare_system(svd_a, svd_b, z)
    assert isinstance(svd, EconomySVD) and svd.rank == economy_svd(d).rank == a.shape[0]
    assert np.linalg.norm(svd.reconstruct() - d) <= 1e-12 * np.linalg.norm(d)
    for gamma in (0.1, 1.0):
        msg = ExtrinsicMessage(complex_normal(rng, a.shape[1]), gamma)
        got = lmmse_extrinsic(svd, z_tilde, msg)
        _, _, r_ref, g_ref = dense_lmmse(d, z.flatten(order="F"), msg.r, gamma)
        assert np.abs(got.r - r_ref).max() <= 1e-8
        assert abs(got.gamma - g_ref) <= 1e-8


def _count_factored(monkeypatch):
    """Count the calls of the factored entry points: the factored assembly
    as linalg.product_svd calls it, and the factored triple's two products."""
    calls = {"assembly": 0, "vh_dot": 0, "v_dot": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "khatri_rao_svd", counted("assembly", linalg.khatri_rao_svd))
    for name in ("vh_dot", "v_dot"):
        monkeypatch.setattr(KhatriRaoSVD, name, counted(name, getattr(KhatriRaoSVD, name)))
    return calls


def test_steps_take_the_factored_path_whenever_the_grid_fits(monkeypatch):
    # every R_a*R_b <= K enters the factored path, once per system and once
    # per linear pass, at any user count; R_a*R_b > K never does
    calls = _count_factored(monkeypatch)
    rng = np.random.default_rng(14)
    for m_a, m_b, factored in [(1, 1, True), (1, 4, True), (2, 2, True), (2, 1, True),
                               (2, 3, True), (3, 3, True), (4, 4, True), (4, 5, True),
                               (3, 7, False)]:
        a, b = complex_normal(rng, m_a, 20), complex_normal(rng, m_b, 20)
        before = dict(calls)
        run_steps(a, b, complex_normal(rng, m_a, m_b), 4, seed=1)
        got = {name: calls[name] - before[name] for name in calls}
        passes = 4 if factored else 0
        assert got == {"assembly": int(factored), "vh_dot": passes,
                       "v_dot": passes}, (m_a, m_b)


def test_steps_solve_the_scalar_identity():
    step, _ = run_steps(np.eye(1), np.eye(1), np.eye(1), 2, seed=0)
    assert np.allclose(step.x_damped, [1.0 + 0j], atol=1e-9)


def test_steps_on_a_diagonal_system_project_phases():
    # A = B = I makes the objective separable; the minimizer is the
    # elementwise phase of diag(Z)
    rng = np.random.default_rng(7)
    diag_z = complex_normal(rng, 4) + np.array([1.5, -2.0, 0.5j, 1 - 1j])
    z = np.diag(diag_z)
    step, history = run_steps(np.eye(4), np.eye(4), z, 200, seed=1)
    assert np.abs(UNIMODULAR.g(step.x_damped) - diag_z / np.abs(diag_z)).max() < 1e-6
    # with A = B = I the objective of a damped iterate x is ||Diag(x) - Z||^2
    objs = [np.linalg.norm(np.diag(x) - z) ** 2 for _, _, x in history]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))


def test_vamp_config_validation():
    # the message-passing step takes no settings: OptimizerConfig holds the
    # loop's four and refuses a former step setting by name
    assert [f.name for f in fields(OptimizerConfig)] == [
        "epsilon_outer", "t_max_outer", "constraint", "collect_trace"]
    for key in ("gamma_w", "rho", "gamma_0"):
        with pytest.raises(TypeError, match=f"'{key}'"):
            OptimizerConfig(**{key: 1.0})


def test_emitted_precisions_respect_floor():
    rng = np.random.default_rng(9)
    a, b, z = complex_normal(rng, 2, 10), complex_normal(rng, 2, 10), complex_normal(rng, 2, 2)
    _, history = run_steps(a, b, z, 50, seed=4)
    for gamma_tilde, gamma_hat, _ in history:
        assert gamma_tilde >= GAMMA_FLOOR
        assert np.isfinite(gamma_hat)


def test_steps_reach_the_grid_optimum_on_a_small_instance():
    # frozen instance; the exhaustive 64^3 phase grid is the oracle
    rng = np.random.default_rng(103)
    a, b, z = complex_normal(rng, 2, 3), complex_normal(rng, 2, 3), complex_normal(rng, 2, 2)
    step, _ = run_steps(a, b, z, 200, seed=0)
    x = UNIMODULAR.g(step.x_damped)
    achieved = np.linalg.norm(a @ np.diag(x) @ b.T - z) ** 2
    theta = np.exp(2j * np.pi * np.arange(64) / 64)
    best = np.inf
    for u1 in theta:
        for u2 in theta:
            grid = np.stack([np.full(64, u1), np.full(64, u2), theta], axis=1)
            vals = np.linalg.norm(np.einsum("mk,gk,kq->gmq", a, grid, b.T) - z,
                                  axis=(1, 2)) ** 2
            best = min(best, float(vals.min()))
    assert achieved <= 1.05 * best
