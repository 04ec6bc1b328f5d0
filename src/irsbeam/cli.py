"""Command-line front end.

Verbs, each declaring only the flags it reads:
  run    - execute a Monte Carlo sweep, write trial CSV, aggregate CSV, charts
  trace  - per-iteration convergence dump for one seeded optimization, with
           why it stopped and which row's design it returned
  oracle - quick self-verification against the built-in reference oracles
  chart  - re-render SVG charts from a previously written aggregate CSV
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .altopt import joint_optimize
from .channel import SystemDims, complex_normal, sample_channel_set
from .charts import emit_chart
from .harness import (dbm_to_watts, desk_spec, emit_aggregate_csv, emit_csv,
                      load_aggregate_csv, load_spec, paper_spec, run_sweep, write_csv)
from .linalg import KhatriRaoSVD, economy_svd, khatri_rao_columns
from .metrics import nrmse, sum_rate
from .oracles import (dense_lmmse, explicit_product_form, grid_reactance, precoder_objective,
                      precoder_reference, random_precoder_search)
from .projectors import REACTIVE, UNIMODULAR
from .precoding import mmse_precoder
from .vamp import ExtrinsicMessage, lmmse_extrinsic, prepare_system


def _seed(text: str) -> int:
    """The --seed value: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _load(args):
    if args.spec:
        spec = load_spec(args.spec)
    else:
        spec = desk_spec() if args.preset == "desk" else paper_spec()
    if args.seed is not None:
        spec = replace(spec, base_seed=args.seed)
    return spec


def cmd_run(args) -> int:
    spec = _load(args)
    os.makedirs(args.out, exist_ok=True)
    done = {"n": 0}
    total = (len(spec.n_bs) * len(spec.n_users) * len(spec.n_irs)
             * len(spec.power_dbm) * len(spec.kappa) * len(spec.schemes) * spec.trials)

    def progress(_rec):
        done["n"] += 1
        if done["n"] % max(1, total // 20) == 0:
            print(f"  {done['n']}/{total} trials", file=sys.stderr)

    records, aggregates = run_sweep(spec, progress=progress)
    emit_csv(records, os.path.join(args.out, "trials.csv"))
    emit_aggregate_csv(aggregates, os.path.join(args.out, "aggregate.csv"))
    for x_key, values in (("K", spec.n_irs), ("power_dbm", spec.power_dbm),
                          ("kappa", spec.kappa)):
        if len(set(values)) > 1:
            path = os.path.join(args.out, f"sum_rate_vs_{x_key}.svg")
            emit_chart(aggregates, x_key, path, y_stat="sum_rate",
                       title=f"median sum-rate vs {x_key} (p10-p90 band)")
    print(f"wrote {len(records)} trial records to {args.out}")
    return 0


def cmd_trace(args) -> int:
    """Solve one channel of the spec's first sizes at its first power and
    write its trace. The channel and then the start are drawn from one
    default_rng(base_seed), not from run_sweep's per-trial streams, and the
    design is on the true channel even when kappa[0] < 1, so the solve is
    not trial 0 of `irsbeam run` with the same spec and seed."""
    spec = _load(args)
    dims = SystemDims(spec.n_bs[0], spec.n_users[0], spec.n_irs[0])
    rng = np.random.default_rng(spec.base_seed)
    ch = sample_channel_set(rng, dims, spec.channel, spec.scenario)
    if args.exclude_direct:
        ch = ch.without_direct_link()
    cfg = spec.optimizer_config(args.constraint, collect_trace=True)
    noise_var = dbm_to_watts(spec.noise_dbm)
    sol = joint_optimize(ch, dbm_to_watts(spec.power_dbm[0]), noise_var, cfg, rng)
    path = os.path.join(args.out, "trace.csv")
    write_csv(path, ["iter", "error", "nrmse", "sum_rate"],
              ([row.iteration, row.error, nrmse(row.alpha, row.upsilon, row.F, ch, noise_var),
                sum_rate(ch, row.upsilon, row.F, noise_var)] for row in sol.trace))
    if sol.converged:
        stopped = "tolerance"
    else:
        stopped = "cap" if sol.iterations == cfg.t_max_outer else "stall"
    # the returned design is one of the rows: the same arrays, not a copy
    returned = next(row.iteration for row in sol.trace if row.F is sol.F)
    print(f"{len(sol.trace)} rows -> {path} (converged={sol.converged}; stopped: {stopped}; "
          f"returned row: {returned})")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"  {'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    return ok


def cmd_oracle(args) -> int:
    """Small-instance cross-checks of every numerical core against the oracles."""
    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    ok = True

    # the triple prepare_system itself builds, factored at every user count:
    # it reconstructs D, and its omega, U^H y and Vh x are those of the
    # product form written out
    for m in (2, 3):
        a, b = complex_normal(rng, m, 7), complex_normal(rng, 2, 7)
        svd_a, svd_b = economy_svd(a), economy_svd(b)
        svd, _ = prepare_system(svd_a, svd_b, np.zeros((m, 2)))
        d = khatri_rao_columns(b, a)
        rel = np.linalg.norm(svd.reconstruct() - d) / np.linalg.norm(d)
        ok &= _check(f"factored product-form SVD reconstructs ({m} x 7 and 2 x 7)",
                     isinstance(svd, KhatriRaoSVD) and rel < 1e-9, f"rel {rel:.2e}")
        ref = explicit_product_form(svd_a, svd_b)
        y, x = complex_normal(rng, 2 * m), complex_normal(rng, 7)
        rel = max(float(np.linalg.norm(got - want) / np.linalg.norm(want))
                  for got, want in ((svd.omega, ref.omega), (svd.uh_dot(y), ref.U.conj().T @ y),
                                    (svd.vh_dot(x), ref.Vh @ x)))
        ok &= _check(f"factored product form matches the explicit one ({m} x 7 and 2 x 7)",
                     rel < 1e-12, f"rel {rel:.2e}")

    # rank(A) rank(B) = 6 > K = 5: prepare_system takes its exact dense branch
    a, b, z = complex_normal(rng, 3, 5), complex_normal(rng, 2, 5), complex_normal(rng, 3, 2)
    svd, z_tilde = prepare_system(economy_svd(a), economy_svd(b), z)
    msg = ExtrinsicMessage(complex_normal(rng, 5), 0.7)
    got = lmmse_extrinsic(svd, z_tilde, msg)
    _, _, r_ref, g_ref = dense_lmmse(khatri_rao_columns(b, a), z.flatten(order="F"),
                                     msg.r, msg.gamma)
    diff = max(float(np.abs(got.r - r_ref).max()), abs(got.gamma - g_ref))
    ok &= _check("production linear pass matches dense form", diff < 1e-8, f"abs {diff:.2e}")

    r = 1.3 - 0.4j
    theta = 2 * np.pi * np.arange(10_000) / 10_000
    grid_best = np.min(np.abs(r - np.exp(1j * theta)) ** 2)
    proj = abs(r - UNIMODULAR.g(r)) ** 2
    ok &= _check("unimodular projector beats its phase grid", proj <= grid_best + 1e-12)

    r = 1 + 1j
    v = REACTIVE.g(r)
    chi_grid = grid_reactance(r, points=100_000)
    ok &= _check("reactive projector beats its reactance grid",
                 abs(r - v) ** 2 <= abs(r + 1 / (1 + 1j * chi_grid)) ** 2 + 1e-12,
                 f"chi {-(1 / v).imag:.4f} vs grid {chi_grid:.4f}")
    ok &= _check("reactive output keeps the sign of Im", v.imag > 0)

    h = complex_normal(rng, 4, 2)
    sol = mmse_precoder(h, 2.0, 0.05)
    a_ref, f_ref = precoder_reference(h, 2.0, 0.05)
    ok &= _check("precoder power constraint is exact",
                 abs(np.linalg.norm(sol.F) ** 2 - 2.0) < 1e-10 * 2.0)
    ok &= _check("precoder matches the literal closed form",
                 np.abs(sol.F - f_ref).max() < 1e-10 and abs(sol.alpha - a_ref) < 1e-10)
    search = random_precoder_search(h, 2.0, 0.05, 20_000, rng)
    ok &= _check("random precoder search never beats the closed form",
                 search >= precoder_objective(h, sol.F, 0.05) - 1e-6)

    # four users: the factored linear pass must be that of the product form
    # written out
    a, b, z = complex_normal(rng, 4, 64), complex_normal(rng, 4, 64), complex_normal(rng, 4, 4)
    svd_a, svd_b = economy_svd(a), economy_svd(b)
    svd, z_tilde = prepare_system(svd_a, svd_b, z)
    explicit = explicit_product_form(svd_a, svd_b)
    msg = ExtrinsicMessage(complex_normal(rng, 64), 0.7)
    got = lmmse_extrinsic(svd, z_tilde, msg)
    want = lmmse_extrinsic(explicit, explicit.uh_dot(z.flatten(order="F")) / explicit.omega, msg)
    rel = max(float(np.linalg.norm(got.r - want.r) / np.linalg.norm(want.r)),
              abs(got.gamma - want.gamma) / want.gamma)
    ok &= _check("factored linear pass matches the explicit product form at M = 4",
                 isinstance(svd, KhatriRaoSVD) and rel < 1e-12, f"rel {rel:.2e}")

    print("oracle suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_chart(args) -> int:
    rows = load_aggregate_csv(args.csv)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.stat}_vs_{args.x}.svg")
    emit_chart(rows, args.x, path, y_stat=args.stat,
               title=f"median {args.stat} vs {args.x} (p10-p90 band)")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="irsbeam",
                                     description="reflective-surface beamforming simulator")
    parser.add_argument("--version", action="version", version=f"irsbeam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a Monte Carlo sweep")
    p_trace = sub.add_parser("trace", help="per-iteration convergence dump for one seed")
    p_oracle = sub.add_parser("oracle",
                              help="tiny-instance verification against reference oracles")
    p_chart = sub.add_parser("chart", help="re-render charts from an aggregate CSV")

    for p in (p_run, p_trace):
        p.add_argument("--spec", metavar="PATH", help="experiment spec file")
        p.add_argument("--preset", choices=("desk", "paper"), default="desk",
                       help="built-in spec used when --spec is absent")
    for p in (p_run, p_trace, p_oracle):
        p.add_argument("--seed", type=_seed, default=None, metavar="U64",
                       help="random seed; run and trace use it as the spec's base_seed")
    for p in (p_run, p_trace, p_chart):
        p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p_trace.add_argument("--constraint", choices=("unimodular", "reactive"),
                         default="unimodular")
    p_trace.add_argument("--exclude-direct", action="store_true",
                         help="zero the direct base-station-user link")
    p_chart.add_argument("--csv", required=True, help="aggregate CSV path")
    p_chart.add_argument("--x", default="K", help="x-axis column")
    p_chart.add_argument("--stat", default="sum_rate", choices=("sum_rate", "nrmse"))

    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "trace": cmd_trace, "oracle": cmd_oracle,
               "chart": cmd_chart}[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
