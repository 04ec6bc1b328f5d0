"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them) and enforces
its stated tolerance and runtime budget. Seeds are fixed, so outcomes are
reproducible bit for bit within one build.
"""

import time

import numpy as np

from irsbeam.altopt import OptimizerConfig, joint_optimize
from irsbeam.channel import SystemDims, complex_normal, sample_channel_set
from irsbeam.harness import ExperimentSpec, run_sweep
from irsbeam.linalg import economy_svd, khatri_rao_columns
from irsbeam.metrics import nrmse
from irsbeam.oracles import (dense_lmmse, grid_phase_search, precoder_objective,
                             random_precoder_search)
from irsbeam.precoding import mmse_precoder
from irsbeam.projectors import REACTIVE, UNIMODULAR
from irsbeam.vamp import ExtrinsicMessage, lmmse_extrinsic, prepare_system


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {tag} - {desc}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {desc} [{detail}]"


def test_criterion_01_lmmse_svd_form_equals_dense_form():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        k = int(rng.integers(2, 13))
        d = khatri_rao_columns(complex_normal(rng, q, k), complex_normal(rng, m, k))
        z = complex_normal(rng, m * q)
        r = complex_normal(rng, k)
        gamma = float(rng.uniform(0.01, 2.0))
        # a random scale of D, and so of every singular value against gamma
        d = np.sqrt(rng.uniform(0.1, 3.0)) * d
        svd = economy_svd(d)
        got = lmmse_extrinsic(svd, (svd.U.conj().T @ z) / svd.omega,
                              ExtrinsicMessage(r, gamma))
        _, _, r_ref, gamma_ref = dense_lmmse(d, z, r, gamma)
        worst = max(worst, float(np.abs(got.r - r_ref).max()),
                    abs(got.gamma - gamma_ref))
    elapsed = time.perf_counter() - start
    _report(1, "SVD-form linear pass equals dense form on 100 instances",
            worst < 1e-8 and elapsed < 10.0,
            f"worst abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_structured_svd_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a, b = complex_normal(rng, m, n), complex_normal(rng, q, n)
        d = khatri_rao_columns(b, a)
        # the triple the solver runs: factored, or dense past K
        svd, _ = prepare_system(economy_svd(a), economy_svd(b), np.zeros((m, q)))
        worst = max(worst, float(np.linalg.norm(svd.reconstruct() - d)
                                 / np.linalg.norm(d)))
    elapsed = time.perf_counter() - start
    _report(2, "the phase system's SVD reconstructs the Khatri-Rao matrix (100 instances)",
            worst < 1e-9 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def _reactance_grid_objective(r: np.ndarray, lo=-1e4, hi=1e4, points=100_000,
                              sample_chunk=50):
    """Batched grid minimum of |r + 1/(1+j chi)|^2 with two refinements."""
    a, b = r.real, r.imag
    c = 1.0 + 2.0 * a
    base = a * a + b * b
    chi0 = np.linspace(lo, hi, points)
    best = np.empty(r.size)
    arg = np.empty(r.size)
    for s in range(0, r.size, sample_chunk):
        sl = slice(s, min(s + sample_chunk, r.size))
        vals = base[sl, None] + (c[sl, None] - 2.0 * b[sl, None] * chi0[None, :]) \
            / (1.0 + chi0[None, :] ** 2)
        idx = np.argmin(vals, axis=1)
        best[sl] = vals[np.arange(idx.size), idx]
        arg[sl] = chi0[idx]
    step = chi0[1] - chi0[0]
    for _ in range(2):
        offsets = np.linspace(-step, step, 1001)
        grid = arg[:, None] + offsets[None, :]
        vals = base[:, None] + (c[:, None] - 2.0 * b[:, None] * grid) / (1.0 + grid**2)
        idx = np.argmin(vals, axis=1)
        best = np.minimum(best, vals[np.arange(idx.size), idx])
        arg = grid[np.arange(idx.size), idx]
        step = offsets[1] - offsets[0]
    return best


def test_criterion_03_projector_minimality_and_feasibility():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    n = 10_000
    r = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        * rng.uniform(0.05, 3.0, n)

    # unimodular against a 1e4-point phase grid
    theta = np.exp(1j * 2 * np.pi * np.arange(10_000) / 10_000)
    proj_obj = np.abs(r - UNIMODULAR.g(r)) ** 2
    ok_uni = True
    for s in range(0, n, 200):
        chunk = r[s:s + 200]
        grid_obj = (np.abs(chunk[:, None] - theta[None, :]) ** 2).min(axis=1)
        if not np.all(proj_obj[s:s + 200] <= grid_obj + 1e-9):
            ok_uni = False
            break

    # reactive against a 1e5-point reactance grid with refinement
    out = REACTIVE.g(r)
    rea_obj = np.abs(r - out) ** 2
    grid_obj = _reactance_grid_objective(r)
    ok_rea = bool(np.all(rea_obj <= grid_obj + 1e-8 * (1.0 + grid_obj)))

    ok_sign = bool(np.all(np.imag(out) * np.imag(r) >= 0))
    ok_mag = bool(np.all(np.abs(out[r.imag != 0]) < 1.0))
    elapsed = time.perf_counter() - start
    _report(3, "projectors beat their grids; sign and magnitude properties hold",
            ok_uni and ok_rea and ok_sign and ok_mag and elapsed < 60.0,
            f"uni {ok_uni}, reactive {ok_rea}, sign {ok_sign}, |v|<1 {ok_mag}, "
            f"{elapsed:.1f}s")


def test_criterion_04_reactive_derivative():
    rng = np.random.default_rng(404)
    r = rng.standard_normal(12_000) + 1j * rng.standard_normal(12_000)
    r = r[np.abs(r.imag) > 1e-6][:10_000]
    assert r.size == 10_000

    h = 1e-6
    d_re = (REACTIVE.g(r + h) - REACTIVE.g(r - h)) / (2 * h)
    d_im = (REACTIVE.g(r + 1j * h) - REACTIVE.g(r - 1j * h)) / (2 * h)
    fd = np.abs(0.5 * (d_re - 1j * d_im))
    gap = float(np.abs(REACTIVE.g_prime(r) - fd).max())
    _report(4, "reactive projector derivative matches FD", gap < 1e-5,
            f"max FD gap {gap:.2e}")


def test_criterion_05_precoder_power_and_search_optimality():
    rng = np.random.default_rng(505)
    ok_power = True
    for _ in range(50):
        nn = int(rng.integers(2, 7))
        mm = int(rng.integers(1, nn))
        power = float(rng.uniform(0.1, 10.0))
        sol = mmse_precoder(complex_normal(rng, nn, mm), power, float(rng.uniform(1e-4, 1.0)))
        if abs(np.linalg.norm(sol.F) ** 2 - power) >= 1e-10 * power:
            ok_power = False

    worst_gap = np.inf
    for nn, mm in ((2, 1), (3, 2), (4, 2), (4, 1)):
        h = complex_normal(rng, nn, mm)
        sol = mmse_precoder(h, 1.0, 0.05)
        closed = precoder_objective(h, sol.F, 0.05)
        best = random_precoder_search(h, 1.0, 0.05, 100_000,
                                      np.random.default_rng(5050 + nn + mm))
        worst_gap = min(worst_gap, best - closed)
    _report(5, "power constraint exact; 1e5-draw search never wins by > 1e-6",
            ok_power and worst_gap >= -1e-6,
            f"power ok {ok_power}, worst search gap {worst_gap:.2e}")


def test_criterion_06_tiny_instance_matches_grid_optimum():
    start = time.perf_counter()
    dims = SystemDims(2, 1, 2)
    ratios = []
    for s in range(100):
        ch = sample_channel_set(np.random.default_rng(6000 + s), dims, scenario="B")
        sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=True),
                             np.random.default_rng(6500 + s))
        _, best = grid_phase_search(ch, 1.0, 1e-13, points_per_phase=64)
        ratios.append(sol.trace[-1].error / best)
    med = float(np.median(ratios))
    elapsed = time.perf_counter() - start
    _report(6, "tiny-instance median objective within 5% of the 64^2 grid optimum",
            med <= 1.05 and elapsed < 300.0, f"median ratio {med:.4f}, {elapsed:.1f}s")


def test_criterion_07_sum_rate_trends():
    start = time.perf_counter()
    spec_k = ExperimentSpec(
        scenario="B", n_bs=[8], n_users=[2], n_irs=[16, 36, 64],
        power_dbm=[30.0], kappa=[1.0],
        schemes=["vamp_unimodular", "vamp_reactive", "random_phase_irs"],
        trials=100, base_seed=2026, record_timing=False)
    _, aggs = run_sweep(spec_k)

    def med(aggs, scheme, **sel):
        for row in aggs:
            if row["scheme"] == scheme and all(row[k] == v for k, v in sel.items()):
                return row["sum_rate_median"]
        raise KeyError((scheme, sel))

    uni_k = [med(aggs, "vamp_unimodular", K=k) for k in (16, 36, 64)]
    ok_k = uni_k[0] < uni_k[1] < uni_k[2]
    u64 = med(aggs, "vamp_unimodular", K=64)
    r64 = med(aggs, "vamp_reactive", K=64)
    p64 = med(aggs, "random_phase_irs", K=64)
    ok_order = u64 > r64 > p64

    spec_p = ExperimentSpec(
        scenario="B", n_bs=[8], n_users=[2], n_irs=[64],
        power_dbm=[10.0, 20.0, 30.0], kappa=[1.0],
        schemes=["vamp_unimodular"], trials=100, base_seed=2026,
        record_timing=False)
    _, aggs_p = run_sweep(spec_p)
    uni_p = [med(aggs_p, "vamp_unimodular", power_dbm=p) for p in (10.0, 20.0, 30.0)]
    ok_p = uni_p[0] < uni_p[1] < uni_p[2]
    elapsed = time.perf_counter() - start
    _report(7, "sum-rate grows with K and P; unimodular > reactive > random at K=64",
            ok_k and ok_order and ok_p and elapsed < 600.0,
            f"K medians {[round(v, 2) for v in uni_k]}, "
            f"K=64 order ({u64:.2f}, {r64:.2f}, {p64:.2f}), "
            f"P medians {[round(v, 2) for v in uni_p]}, {elapsed:.0f}s")


def test_criterion_08_convergence_profile_without_direct_link():
    dims = SystemDims(8, 2, 64)
    monotone = 0
    converged = 0
    max_iters = 0
    for s in range(100):
        ch = sample_channel_set(np.random.default_rng(8000 + s), dims,
                                scenario="B").without_direct_link()
        sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=True),
                             np.random.default_rng(8500 + s))
        vals = np.array([nrmse(row.alpha, row.upsilon, row.F, ch, 1e-13) for row in sol.trace])
        monotone += int(np.all(np.diff(vals) <= 1e-6))
        converged += int(sol.converged)
        max_iters = max(max_iters, sol.iterations)
    _report(8, "damped NRMSE trace non-increasing on >= 95% of seeds; loop "
               "terminates within the iteration cap",
            monotone >= 95 and max_iters <= 100,
            f"monotone {monotone}/100, converged-before-cap {converged}/100, "
            f"max iters {max_iters}")


def test_criterion_09_csi_quality_trend():
    spec = ExperimentSpec(
        scenario="B", n_bs=[8], n_users=[2], n_irs=[36], power_dbm=[30.0],
        kappa=[0.85, 0.95, 0.99, 1.0], schemes=["vamp_unimodular"],
        trials=100, base_seed=909, record_timing=False)
    _, aggs = run_sweep(spec)
    rows = {row["kappa"]: row for row in aggs}
    meds = [rows[k]["sum_rate_median"] for k in (0.85, 0.95, 0.99, 1.0)]
    ok_mono = all(a <= b + 1e-9 for a, b in zip(meds, meds[1:]))
    ok_band = all(meds[i] <= rows[(0.95, 0.99, 1.0)[i]]["sum_rate_p90"]
                  for i in range(3))
    ok_99 = meds[2] >= 0.95 * meds[3]
    _report(9, "median sum-rate non-decreasing in CSI quality; 1% error costs < 5%",
            ok_mono and ok_band and ok_99,
            f"medians {[round(v, 2) for v in meds]}")


def test_criterion_10_large_case_wall_time():
    dims = SystemDims(32, 4, 256)
    ch = sample_channel_set(np.random.default_rng(1010), dims, scenario="B")
    start = time.perf_counter()
    sol = joint_optimize(ch, 1.0, 1e-13, OptimizerConfig(collect_trace=False),
                         np.random.default_rng(1011))
    elapsed = time.perf_counter() - start
    _report(10, "joint optimization at N=32, M=4, K=256 under one second",
            elapsed < 1.0 and sol.iterations <= 100,
            f"{elapsed * 1e3:.0f} ms, {sol.iterations} iterations")
