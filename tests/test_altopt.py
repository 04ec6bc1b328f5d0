from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from irsbeam import altopt, linalg, metrics, vamp
from irsbeam.altopt import OptimizerConfig, joint_optimize, phase_system
from irsbeam.channel import ChannelSet, SystemDims, complex_normal, sample_channel_set
from irsbeam.harness import desk_spec
from irsbeam.linalg import KhatriRaoSVD, economy_svd, qr_core_svd
from irsbeam.metrics import fit_error, nrmse
from irsbeam.oracles import grid_phase_search, sum_mse_reference
from irsbeam.precoding import effective_channel, mmse_precoder
from irsbeam.projectors import UNIMODULAR
from irsbeam.vamp import prepare_system


def toy_channel(rng, n, m, k):
    return ChannelSet(complex_normal(rng, k, n), complex_normal(rng, n, m),
                      complex_normal(rng, k, m), d_users=np.full(m, 500.0),
                      d_irs_users=np.full(m, 30.0))


def test_objective_error_zero_solution():
    rng = np.random.default_rng(0)
    ch = toy_channel(rng, 4, 3, 6)
    h = effective_channel(ch, np.ones(6, complex))
    assert fit_error(0.0, h, np.zeros((4, 3), complex), 0.0) == pytest.approx(3.0, rel=1e-12)


def test_objective_error_perfect_equalization():
    ch = ChannelSet(np.zeros((2, 1), complex), np.array([[2.0 + 0j]]),
                    np.zeros((2, 1), complex))
    h = effective_channel(ch, np.zeros(2, complex))
    assert fit_error(1.0, h, np.array([[0.5 + 0j]]), 0.0) == pytest.approx(0.0, abs=1e-14)


def test_objective_error_matches_per_user_expansion():
    rng = np.random.default_rng(1)
    ch = toy_channel(rng, 5, 3, 7)
    ups = np.exp(2j * np.pi * rng.random(7))
    f = complex_normal(rng, 5, 3)
    alpha = 0.6
    h = effective_channel(ch, ups)
    got = fit_error(alpha, h, f, 0.04)
    want = sum_mse_reference(alpha, f, h, 0.04)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def setup_dense(ch, f, alpha):
    """The phase system joint_optimize assembles (phase_system), with A and
    B rebuilt dense from the SVDs it returns."""
    a, b, z = phase_system(ch, f, alpha)
    return a.reconstruct(), b.reconstruct(), z


def test_vamp_setup_identity_toy():
    ch = ChannelSet(np.eye(3, dtype=complex), np.zeros((3, 3), complex),
                    np.eye(3, dtype=complex))
    a, b, z = setup_dense(ch, np.eye(3, dtype=complex), 1.0)
    assert np.allclose(a, np.eye(3))
    assert np.allclose(b, np.eye(3))
    assert np.allclose(z, np.eye(3))


def test_vamp_setup_scalar_chain():
    ch = ChannelSet(np.array([[3.0 + 0j]]), np.array([[2.0 + 0j]]),
                    np.array([[5.0 + 0j]]))
    a, b, z = setup_dense(ch, np.array([[4.0 + 0j]]), 0.5)
    assert np.allclose(a, [[0.5 * 5.0]])
    assert np.allclose(b, [[3.0 * 4.0]])
    assert np.allclose(z, [[1.0 - 0.5 * 2.0 * 4.0]])


def test_vamp_setup_objective_equality():
    # || A Diag(u) B^T - Z ||_F^2 must equal the full objective minus its
    # noise term for any phase vector
    rng = np.random.default_rng(2)
    ch = toy_channel(rng, 5, 3, 8)
    sol = mmse_precoder(effective_channel(ch, np.ones(8, complex)), 2.0, 0.01)
    # B through the core of the channel set's rank factor, against the
    # objective on the literal effective channel of the direct H_bs
    a, b, z = setup_dense(ch, sol.F, sol.alpha)
    for _ in range(100):
        ups = np.exp(2j * np.pi * rng.random(8))
        lhs = np.linalg.norm(a @ np.diag(ups) @ b.T - z) ** 2
        h = (ch.H_su.conj().T @ np.diag(ups) @ ch.H_bs + ch.H_bu.conj().T).conj().T
        rhs = fit_error(sol.alpha, h, sol.F, 0.01) - 3 * sol.alpha**2 * 0.01
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_rescaled_surface_svd_matches_fresh_svd():
    # the loop factors H_su^H once and scales its singular values by alpha;
    # a fresh SVD of alpha H_su^H keeps the same components, and the linear
    # system built from either agrees to rounding, at physical scale
    for seed, dims in ((20, SystemDims(8, 2, 16)), (21, SystemDims(32, 4, 256))):
        ch = sample_channel_set(np.random.default_rng(seed), dims)
        ups = np.exp(2j * np.pi * np.random.default_rng(seed + 100).random(dims.K))
        sol = mmse_precoder(effective_channel(ch, ups), 1.0, 1e-13)
        # B as joint_optimize hands it over: through the rank factor's core
        a, svd_b, z = phase_system(ch, sol.F, sol.alpha)
        fresh = economy_svd(sol.alpha * ch.H_su.conj().T)
        assert a.rank == fresh.rank == dims.M
        np.testing.assert_allclose(a.omega, fresh.omega, rtol=1e-12)
        svd, z_tilde = prepare_system(a, svd_b, z)
        svd_ref, z_ref = prepare_system(fresh, svd_b, z)
        assert svd.rank == svd_ref.rank
        np.testing.assert_allclose(svd.omega, svd_ref.omega, rtol=1e-12)
        assert np.linalg.norm(z_tilde - z_ref) <= 1e-12 * np.linalg.norm(z_ref)


def test_joint_optimize_scalar_instance_hits_mmse_bound():
    # single-antenna, single-user, single-reflector chain with no direct
    # link: after phase absorption the optimum is the scalar MMSE value
    # sigma^2 / (P + sigma^2)
    ch = ChannelSet(np.array([[1.0 + 0j]]), np.zeros((1, 1), complex),
                    np.array([[1.0 + 0j]]))
    power, noise = 1.0, 0.25
    cfg = OptimizerConfig(epsilon_outer=1e-9, t_max_outer=200)
    sol = joint_optimize(ch, power, noise, cfg, np.random.default_rng(0))
    want = noise / (power + noise)
    got = fit_error(sol.alpha, effective_channel(ch, sol.upsilon), sol.F, noise)
    assert got == pytest.approx(want, rel=1e-6)
    assert abs(abs(sol.upsilon[0]) - 1.0) < 1e-12


def test_joint_optimize_feasibility_and_power():
    dims = SystemDims(8, 2, 16)
    ch = sample_channel_set(np.random.default_rng(3), dims)
    for constraint in ("unimodular", "reactive"):
        cfg = OptimizerConfig(constraint=constraint, collect_trace=True)
        sol = joint_optimize(ch, 1.0, 1e-13, cfg, np.random.default_rng(4))
        if constraint == "unimodular":
            assert np.allclose(np.abs(sol.upsilon), 1.0, atol=1e-12)
        else:
            assert np.allclose(np.abs(sol.upsilon + 0.5), 0.5, atol=1e-9)
        assert abs(np.linalg.norm(sol.F) ** 2 - 1.0) < 1e-10
        assert sol.iterations <= cfg.t_max_outer
        assert all(np.isfinite(row.error) for row in sol.trace)


def test_joint_optimize_improves_on_start():
    dims = SystemDims(8, 2, 16)
    improved = 0
    for s in range(40):
        ch = sample_channel_set(np.random.default_rng(100 + s), dims)
        sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=True),
                             np.random.default_rng(200 + s))
        improved += int(sol.trace[-1].error <= sol.trace[0].error + 1e-12)
    assert improved >= 38  # statistical: at least 95% of seeds


def test_joint_optimize_tiny_instance_near_grid_optimum():
    # reduced-seed version of the acceptance check
    dims = SystemDims(2, 1, 2)
    ratios = []
    for s in range(20):
        ch = sample_channel_set(np.random.default_rng(300 + s), dims)
        sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=True),
                             np.random.default_rng(400 + s))
        _, best = grid_phase_search(ch, 1.0, 1e-13, points_per_phase=64)
        ratios.append(sol.trace[-1].error / best)
    assert np.median(ratios) <= 1.05


def test_reactive_final_error_not_below_unimodular():
    # smaller feasible set cannot win on medians
    dims = SystemDims(4, 1, 9)
    uni, rea = [], []
    for s in range(30):
        ch = sample_channel_set(np.random.default_rng(500 + s), dims)
        for kind, acc in (("unimodular", uni), ("reactive", rea)):
            sol = joint_optimize(ch, 1.0, 1e-13,
                                 OptimizerConfig(constraint=kind, collect_trace=True),
                                 np.random.default_rng(600 + s))
            acc.append(sol.trace[-1].error)
    assert np.median(rea) >= np.median(uni)


def test_stopping_rule_relative_change():
    dims = SystemDims(8, 2, 16)
    ch = sample_channel_set(np.random.default_rng(7), dims)
    sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=True),
                         np.random.default_rng(8))
    if sol.converged:
        errs = [row.error for row in sol.trace]
        assert abs(errs[-1] - errs[-2]) < 1e-3 * errs[-2]
        # and the rule did not fire earlier
        for a, b in zip(errs[1:-2], errs[2:-1]):
            assert abs(b - a) >= 1e-3 * a


@pytest.mark.parametrize("dims", [SystemDims(8, 2, 16), SystemDims(32, 4, 256)])
def test_stopping_rule_fires_at_a_zero_objective(dims):
    # noise-free with N > M the precoder equalizes exactly at every phase
    # vector, so the objective is zero up to rounding and its relative change
    # is rounding noise; the floor of M times the machine epsilon under the
    # reference stops the loop at its first comparison instead of the cap
    for s in range(4):
        ch = sample_channel_set(np.random.default_rng([s, 11]), dims)
        sol = joint_optimize(ch, 1.0, 0.0, OptimizerConfig(collect_trace=True),
                             np.random.default_rng([s, 17]))
        assert (sol.iterations, sol.converged) == (1, True), s
        assert all(row.error < dims.M * np.finfo(float).eps for row in sol.trace), s


def test_trace_nrmse_consistency():
    # each row holds the design its objective was taken at: the objective is
    # that design's sum-MSE, metrics.nrmse scores it as sqrt(error / M), and
    # the solve converged, so the last row's design is the one returned
    dims = SystemDims(4, 2, 9)
    ch = sample_channel_set(np.random.default_rng(11), dims)
    sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=True),
                         np.random.default_rng(12))
    for row in sol.trace:
        np.testing.assert_allclose(row.error,
                                   fit_error(row.alpha, effective_channel(ch, row.upsilon),
                                             row.F, 1e-13),
                                   rtol=1e-12)
        np.testing.assert_allclose(nrmse(row.alpha, row.upsilon, row.F, ch, 1e-13) ** 2 * 2,
                                   row.error, rtol=1e-12)
    last = sol.trace[-1]
    assert sol.converged
    assert np.array_equal(last.upsilon, sol.upsilon) and np.array_equal(last.F, sol.F)
    assert last.alpha == sol.alpha


def test_traced_solve_builds_one_effective_channel_per_iteration(monkeypatch):
    # a traced iteration is the untraced one plus an append: one effective
    # channel, and no score taken inside the loop
    dims = SystemDims(8, 2, 16)
    ch = sample_channel_set(np.random.default_rng(13), dims)
    calls = []

    def counted(*args):
        calls.append(1)
        return effective_channel(*args)

    def forbidden(*args):
        raise AssertionError("the loop scored a design")

    monkeypatch.setattr(altopt, "effective_channel", counted)
    for module in (altopt, metrics):
        for name in ("per_user_sinr", "fit_error", "sum_rate", "nrmse"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=True),
                         np.random.default_rng(14))
    assert len(calls) == sol.iterations + 1 == len(sol.trace)


@pytest.mark.parametrize("constraint", ["unimodular", "reactive"])
def test_wrappers_of_the_layer_names_see_every_call(monkeypatch, constraint):
    # bench/tracer.py times a layer by rebinding its module name: the loop
    # must look each name up when it calls it, never hold a reference of its
    # own, so that wrappers bound to the names count one phase system, one
    # set-up and one linear pass per outer iteration, and one effective
    # channel more (iteration 0); the unimodular solve is gated, so the
    # count runs through the switch
    seen = {}

    def counted(module, name):
        fn = getattr(module, name)
        seen[name] = 0

        def wrapper(*args):
            seen[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((altopt, "phase_system"), (altopt, "prepare_system"),
                         (vamp, "lmmse_extrinsic"), (altopt, "effective_channel")):
        counted(module, name)
    ch = sample_channel_set(np.random.default_rng(7), SystemDims(8, 2, 16))
    sol = joint_optimize(ch, 1.0, 1e-13,
                         OptimizerConfig(constraint=constraint, collect_trace=True),
                         np.random.default_rng(8))
    steps = sol.iterations
    assert steps > 1
    if constraint == "unimodular":
        powers = row_powers(sol)
        np.testing.assert_allclose([powers[0], powers[-1]], [0.1, 1.0], rtol=1e-12)
    assert seen == {"phase_system": steps, "prepare_system": steps, "lmmse_extrinsic": steps,
                    "effective_channel": steps + 1}


def _count_paths(monkeypatch):
    """The calls of the phase step's entry points: the factoring of B through
    the rank factor's core, the factored assembly as linalg.product_svd
    calls it, and the factored linear pass's V y."""
    seen = {"core": 0, "assembly": 0, "linear": 0}

    def counted(name, fn):
        def wrapper(*args):
            seen[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(altopt, "qr_core_svd", counted("core", altopt.qr_core_svd))
    monkeypatch.setattr(linalg, "khatri_rao_svd", counted("assembly", linalg.khatri_rao_svd))
    monkeypatch.setattr(KhatriRaoSVD, "v_dot", counted("linear", KhatriRaoSVD.v_dot))
    return seen


@pytest.mark.parametrize("constraint", ["unimodular", "reactive"])
def test_joint_optimize_takes_the_factored_path_at_every_user_count(monkeypatch, constraint):
    # counts, not timings or bits: every phase step factors B through the
    # rank factor's core and enters the factored product form, at the desk
    # shapes (two users) as from three users on
    spec = desk_spec()
    shapes = [SystemDims(n, m, k) for n in spec.n_bs for m in spec.n_users for k in spec.n_irs]
    shapes += [SystemDims(8, 3, 16), SystemDims(32, 4, 256), SystemDims(32, 8, 256)]
    cfg = OptimizerConfig(constraint=constraint)
    for dims in shapes:
        seen = _count_paths(monkeypatch)
        ch = sample_channel_set(np.random.default_rng(dims.K), dims)
        sol = joint_optimize(ch, 1.0, 1e-13, cfg, np.random.default_rng(16))
        steps = sol.iterations
        assert seen == {"core": steps, "assembly": steps, "linear": steps}, dims
        monkeypatch.undo()


def _qr_core_cases():
    rng = np.random.default_rng(17)
    # K > N; K <= N; and a rank-deficient H_bs, 10 paths < N = 32 as at
    # paper scale; with the rank of H_bs
    cases = [("K>N", complex_normal(rng, 64, 8), 4, 8),
             ("K<=N", complex_normal(rng, 16, 32), 4, 16),
             ("K=N", complex_normal(rng, 8, 8), 3, 8),
             ("rank-10", complex_normal(rng, 256, 10) @ complex_normal(rng, 10, 32), 8, 10),
             ("paper", sample_channel_set(rng, SystemDims(32, 4, 256)).H_bs, 4, 10)]
    return [pytest.param(h_bs, m, rank, id=name) for name, h_bs, m, rank in cases]


@pytest.mark.parametrize("h_bs, m, rank", _qr_core_cases())
def test_qr_core_factors_b(h_bs, m, rank):
    # the rank factor H_bs = Q_r R_r, as the channel set holds it, and the
    # SVD of B = (H_bs F)^T through its core R_r F, as phase_system
    # returns it, against economy_svd(B) of the direct B: the same singular
    # values, a factorization of B, and orthonormal rows of Vh
    k, n = h_bs.shape
    rng = np.random.default_rng(k + n + m)
    ch = ChannelSet(h_bs, complex_normal(rng, n, m), complex_normal(rng, k, m))
    f = complex_normal(rng, n, m)
    q, r = ch.H_bs_factor
    assert q.shape == (k, rank) and r.shape == (rank, n)
    assert np.abs(q.conj().T @ q - np.eye(rank)).max() <= 1e-12
    assert np.linalg.norm(q @ r - h_bs) <= 1e-12 * np.linalg.norm(h_bs)
    b_dense = (ch.H_bs @ f).T
    _, b, _ = phase_system(ch, f, 0.7)
    ref = economy_svd(b_dense)
    want = qr_core_svd(q, r @ f)
    for name in ("U", "omega", "Vh"):
        assert getattr(b, name).tobytes() == getattr(want, name).tobytes()
    assert b.rank == ref.rank
    assert b.U.shape == (m, b.rank) and b.Vh.shape == (b.rank, k)
    np.testing.assert_allclose(b.omega, ref.omega, rtol=0, atol=1e-12 * ref.omega[0])
    assert np.linalg.norm(b.reconstruct() - b_dense) <= 1e-12 * np.linalg.norm(b_dense)
    eye = np.eye(b.rank)
    assert np.abs(b.Vh @ b.Vh.conj().T - eye).max() <= 1e-12
    assert np.abs(b.U.conj().T @ b.U - eye).max() <= 1e-12


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_clamp_counts_reach_the_solution(monkeypatch, seed):
    # eight users against nine antennas at noise 1e-3: the projector pass
    # clamps its precision at every step; the solution's diagnostics must
    # report the clamps the steps took, counted here from what each step
    # returned (a clamp is a gamma_hat - gamma_tilde outside (0, inf))
    steps = []
    call = vamp.VampStep.__call__

    def counted(self, svd, z_tilde):
        steps.append(call(self, svd, z_tilde))
        return steps[-1]

    monkeypatch.setattr(vamp.VampStep, "__call__", counted)
    rng = np.random.default_rng(seed)
    sol = joint_optimize(toy_channel(rng, 9, 8, 12), 1.0, 1e-3, None, rng)
    clamps = sum(not 0.0 < gamma_hat - gamma_tilde < np.inf for gamma_tilde, gamma_hat in steps)
    assert len(steps) == sol.iterations > 0
    assert sol.diagnostics.projector_clamps == clamps == sol.iterations
    assert sol.diagnostics.lmmse_clamps == 0


@pytest.mark.parametrize("constraint", ["unimodular", "reactive"])
def test_traced_and_untraced_solves_are_bit_identical(constraint):
    ch = sample_channel_set(np.random.default_rng(15), SystemDims(8, 2, 16))
    traced, quiet = (joint_optimize(ch, 1.0, 1e-13,
                                    OptimizerConfig(constraint=constraint, collect_trace=flag),
                                    np.random.default_rng(16))
                     for flag in (True, False))
    assert len(traced.trace) == traced.iterations + 1 > 2 and quiet.trace == []
    assert (traced.iterations, traced.converged, traced.alpha, traced.diagnostics) == \
        (quiet.iterations, quiet.converged, quiet.alpha, quiet.diagnostics)
    assert traced.upsilon.tobytes() == quiet.upsilon.tobytes()
    assert traced.F.tobytes() == quiet.F.tobytes()


def test_optimizer_config_validation():
    # one rule table checks every setting of both drivers, NaN included, and
    # the constraint is looked up among the projectors when the object is built
    nan, inf = float("nan"), float("inf")
    for key, bad in (("epsilon_outer", 0.0), ("epsilon_outer", -1.0), ("epsilon_outer", nan),
                     ("epsilon_outer", inf), ("t_max_outer", 0), ("t_max_outer", 2.5),
                     ("t_max_outer", 3.0), ("t_max_outer", nan), ("constraint", "ideal")):
        with pytest.raises(ValueError, match=f"^{key}: "):
            OptimizerConfig(**{key: bad})
    with pytest.raises(FrozenInstanceError):
        OptimizerConfig().epsilon_outer = 0.5
    assert OptimizerConfig(t_max_outer=np.int64(3)).t_max_outer == 3


def row_powers(sol):
    """||F||_F^2 of each trace row."""
    return [float(np.linalg.norm(row.F) ** 2) for row in sol.trace]


def weakest_eigenmode_snr(ch, power, noise, seed):
    """The gate's ratio: the least eigenvalue of H^H H at the initial phases
    joint_optimize draws from default_rng(seed), over the precoder's
    regulariser M noise / P."""
    h = effective_channel(ch, UNIMODULAR.initial_point(ch.dims[2], np.random.default_rng(seed)))
    return np.linalg.eigvalsh(h.conj().T @ h)[0] / (ch.dims[1] * noise / power)


def test_gate_stays_off_without_noise_and_at_low_snr():
    # at noise 0 there is no regulariser to compare with; at 10 dBm the
    # weakest eigenmode of this channel is below the gate: every row is at P
    ch = sample_channel_set(np.random.default_rng(7), SystemDims(8, 2, 16))
    assert weakest_eigenmode_snr(ch, 1e-2, 1e-13, 8) < altopt.GATE_RATIO
    for power, noise in ((1.0, 0.0), (1e-2, 1e-13)):
        sol = joint_optimize(ch, power, noise, OptimizerConfig(collect_trace=True),
                             np.random.default_rng(8))
        assert sol.converged
        np.testing.assert_allclose(row_powers(sol), power, rtol=1e-12)


def test_gated_solve_starts_at_a_tenth_of_the_power(monkeypatch):
    # at 30 dBm the gate fires: the rows up to the switch hold the precoder at
    # P / 10, the row of the switch and every later one the precoder at P, and
    # the switch rebuilds no effective channel
    ch = sample_channel_set(np.random.default_rng(7), SystemDims(8, 2, 16))
    assert weakest_eigenmode_snr(ch, 1.0, 1e-13, 8) > altopt.GATE_RATIO
    calls = []

    def counted(*args):
        calls.append(1)
        return effective_channel(*args)

    monkeypatch.setattr(altopt, "effective_channel", counted)
    sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=True),
                         np.random.default_rng(8))
    powers = np.array(row_powers(sol))
    low = np.isclose(powers, 1.0 / altopt.START_POWER_DIVISOR, rtol=1e-12)
    switch = int(np.argmin(low))
    assert 1 < switch < sol.iterations and low[:switch].all()
    np.testing.assert_allclose(powers[switch:], 1.0, rtol=1e-12)
    assert sol.converged and len(calls) == sol.iterations + 1 == len(sol.trace)
    # the stop rule of the target power compared the last two rows
    errs = [row.error for row in sol.trace]
    assert abs(errs[-1] - errs[-2]) < 1e-3 * errs[-2]


@pytest.mark.parametrize("t_max_outer", [1, 3, 7, 8])
def test_budget_covers_both_stages(t_max_outer):
    # unbounded, this solve switches at iteration 7 and stops at 10: every
    # budget below that ends cut off, after exactly t_max_outer phase updates
    # of both stages together, with the precoder at the target power on the
    # returned phases, also when it ends in the first stage
    ch = sample_channel_set(np.random.default_rng(7), SystemDims(8, 2, 16))
    power, noise = 1.0, 1e-13
    sol = joint_optimize(ch, power, noise,
                         OptimizerConfig(t_max_outer=t_max_outer, collect_trace=True),
                         np.random.default_rng(8))
    assert (sol.iterations, sol.converged) == (t_max_outer, False)
    want = mmse_precoder(effective_channel(ch, sol.upsilon), power, noise)
    assert sol.F.tobytes() == want.F.tobytes() and sol.alpha == want.alpha
    powers = row_powers(sol)
    np.testing.assert_allclose(powers[:min(t_max_outer, 7)], 0.1, rtol=1e-12)
    assert powers[-1] == pytest.approx(power, rel=1e-12)
    assert sol.trace[-1].F.tobytes() == sol.F.tobytes()


@pytest.mark.parametrize("seed", [7, 11])
def test_clamp_counts_of_both_stages_reach_the_solution(monkeypatch, seed):
    # eight users against nine antennas at noise 3e-2: a gated solve whose
    # steps clamp in both stages; the solution reports the sum, counted here
    # from what each step of either stage's VampStep returned
    steps = []
    call = vamp.VampStep.__call__

    def counted(self, svd, z_tilde):
        steps.append(call(self, svd, z_tilde))
        return steps[-1]

    monkeypatch.setattr(vamp.VampStep, "__call__", counted)
    rng = np.random.default_rng(seed)
    sol = joint_optimize(toy_channel(rng, 9, 8, 12), 1.0, 3e-2,
                         OptimizerConfig(collect_trace=True), rng)
    clamped = [not 0.0 < gamma_hat - gamma_tilde < np.inf for gamma_tilde, gamma_hat in steps]
    # row t is taken after step t - 1; the first row at P is the switch's
    switch = int(np.argmax(np.isclose(row_powers(sol), 1.0, rtol=1e-12)))
    assert 0 < switch < sol.iterations == len(steps)
    assert any(clamped[:switch]) and any(clamped[switch:])
    assert sol.diagnostics.projector_clamps == sum(clamped)
    assert sol.diagnostics.lmmse_clamps == 0


def test_switch_starts_a_fresh_step_on_the_switch_phases(monkeypatch):
    # the gated solve of the test above: the switch's VampStep starts from
    # the switch row's phases, as message mean and damped iterate, at
    # INITIAL_PRECISION, and the clamp counts of the first stage carry over
    built = []

    class Recorded(vamp.VampStep):
        def __init__(self, projector, x0):
            super().__init__(projector, x0)
            self.start = (self.msg.r.copy(), self.msg.gamma, self.x_damped.copy())
            self.clamps = 0
            built.append(self)

        def __call__(self, svd, z_tilde):
            gamma_tilde, gamma_hat = super().__call__(svd, z_tilde)
            self.clamps += not 0.0 < gamma_hat - gamma_tilde < np.inf
            return gamma_tilde, gamma_hat

    monkeypatch.setattr(altopt, "VampStep", Recorded)
    rng = np.random.default_rng(7)
    sol = joint_optimize(toy_channel(rng, 9, 8, 12), 1.0, 3e-2,
                         OptimizerConfig(collect_trace=True), rng)
    switch = int(np.argmax(np.isclose(row_powers(sol), 1.0, rtol=1e-12)))
    assert 0 < switch < sol.iterations and len(built) == 2
    first, second = built
    r0, gamma0, x0 = second.start
    assert r0.tobytes() == x0.tobytes() == sol.trace[switch].upsilon.tobytes()
    assert gamma0 == vamp.INITIAL_PRECISION
    assert first.clamps > 0 and second.clamps > 0
    assert sol.diagnostics.projector_clamps == first.clamps + second.clamps


def new_minima(errs, epsilon, m):
    """The rows at which a stage made a new minimum: below the stage's last
    one by the stop rule's relative tolerance and floor of M epsilons."""
    floor = m * np.finfo(float).eps
    rows = [0]
    for t in range(1, len(errs)):
        if errs[t] < errs[rows[-1]] - epsilon * max(errs[rows[-1]], floor):
            rows.append(t)
    return rows


@pytest.mark.parametrize("seed, last_minimum, lowest", [(2, 6, 6), (167, 38, 40)])
def test_stalled_solve_returns_its_lowest_objective_row(monkeypatch, seed, last_minimum, lowest):
    # reactive loads at K = 256 and 20 dBm: the loop never settles. Seed 2
    # wanders between objectives 0.33 and 0.56; seed 167 alternates between
    # two levels whose lower one creeps down by about the margin per period,
    # so its lowest row, 40, lies below the last new minimum by less than
    # the margin and does not restart the count. The solve stalls
    # STALL_ITERATIONS after its last new minimum, unconverged, and returns
    # its lowest row, not the last one; with the stall rule off the same
    # trajectory runs to the cap and returns the same row
    ch = sample_channel_set(np.random.default_rng(seed), SystemDims(8, 2, 256), scenario="B")
    cfg = OptimizerConfig(constraint="reactive", collect_trace=True)
    sol = joint_optimize(ch, 0.1, 1e-13, cfg, np.random.default_rng(1000 + seed))
    errs = [row.error for row in sol.trace]
    np.testing.assert_allclose(row_powers(sol), 0.1, rtol=1e-12)
    assert new_minima(errs, cfg.epsilon_outer, 2)[-1] == last_minimum
    assert int(np.argmin(errs)) == lowest and errs[lowest] < errs[-1]
    assert (sol.iterations, sol.converged) == (last_minimum + altopt.STALL_ITERATIONS, False)
    row = sol.trace[lowest]
    assert sol.F.tobytes() == row.F.tobytes() and sol.upsilon.tobytes() == row.upsilon.tobytes()
    assert sol.alpha == row.alpha
    monkeypatch.setattr(altopt, "STALL_ITERATIONS", cfg.t_max_outer + 1)
    capped = joint_optimize(ch, 0.1, 1e-13, cfg, np.random.default_rng(1000 + seed))
    assert (capped.iterations, capped.converged) == (cfg.t_max_outer, False)
    assert min(row.error for row in capped.trace) == errs[lowest]
    assert capped.F.tobytes() == sol.F.tobytes()


def test_descent_to_the_cap_makes_a_new_minimum_at_every_iteration():
    # the paper-solve reference block's cold unimodular solve of channel 2
    # descends slowly: every iteration is a new minimum, so it never stalls,
    # runs to the cap and returns its last row, the lowest
    ch = sample_channel_set(np.random.default_rng([7, 11, 2]), SystemDims(32, 4, 256),
                            scenario="B")
    cfg = OptimizerConfig(collect_trace=True)
    sol = joint_optimize(ch, 1.0, 1e-13, cfg, np.random.default_rng([7, 17, 2]))
    errs = [row.error for row in sol.trace]
    np.testing.assert_allclose(row_powers(sol), 1.0, rtol=1e-12)
    assert (sol.iterations, sol.converged) == (cfg.t_max_outer, False)
    assert new_minima(errs, cfg.epsilon_outer, 4) == list(range(len(errs)))
    assert sol.F.tobytes() == sol.trace[-1].F.tobytes()


def test_first_stage_stall_switches_to_the_target_power(monkeypatch):
    # a gated unimodular solve at K = 256 whose first stage stalls: it
    # switches STALL_ITERATIONS after that stage's last new minimum, before
    # the stop rule would have (the switch with the stall rule off)
    ch = sample_channel_set(np.random.default_rng(2), SystemDims(8, 2, 256), scenario="B")
    cfg = OptimizerConfig(collect_trace=True)

    def solve():
        sol = joint_optimize(ch, 1.0, 1e-13, cfg, np.random.default_rng(1002))
        return sol, int(np.argmax(np.isclose(row_powers(sol), 1.0, rtol=1e-12)))

    sol, switch = solve()
    first = [row.error for row in sol.trace[:switch]]
    assert switch > 0 and sol.converged
    assert switch == new_minima(first, cfg.epsilon_outer, 2)[-1] + altopt.STALL_ITERATIONS
    monkeypatch.setattr(altopt, "STALL_ITERATIONS", cfg.t_max_outer + 1)
    _, later = solve()
    assert later > switch
