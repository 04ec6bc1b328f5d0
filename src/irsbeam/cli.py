"""Command-line front end.

Verbs:
  run    - execute a Monte Carlo sweep, write trial CSV, aggregate CSV, charts
  trace  - per-iteration convergence dump for one seeded optimization
  oracle - quick self-verification against the built-in reference oracles
  chart  - re-render SVG charts from a previously written aggregate CSV
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .altopt import joint_optimize
from .channel import SystemDims, sample_channel_set
from .charts import emit_chart
from .harness import (dbm_to_watts, desk_spec, emit_aggregate_csv, emit_csv,
                      load_aggregate_csv, load_spec, paper_spec, run_sweep)
from .linalg import economy_svd, khatri_rao_columns, structured_svd
from .oracles import (dense_lmmse, grid_reactance, precoder_reference,
                      random_precoder_search)
from .projectors import REACTIVE, UNIMODULAR
from .precoding import mmse_precoder
from .vamp import ExtrinsicMessage, VampConfig, lmmse_extrinsic


def _base_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", metavar="PATH", help="experiment spec file")
    common.add_argument("--preset", choices=("desk", "paper"), default="desk",
                        help="built-in spec used when --spec is absent")
    common.add_argument("--out", metavar="DIR", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the spec's base seed")
    return common


def _load(args):
    if args.spec:
        spec = load_spec(args.spec)
    else:
        spec = desk_spec() if args.preset == "desk" else paper_spec()
    if args.seed is not None:
        spec.base_seed = args.seed
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
    spec = _load(args)
    dims = SystemDims(spec.n_bs[0], spec.n_users[0], spec.n_irs[0])
    rng = np.random.default_rng(spec.base_seed)
    ch = sample_channel_set(rng, dims, spec.channel, spec.scenario)
    if args.exclude_direct:
        ch = ch.without_direct_link()
    cfg = spec.optimizer_config(args.constraint, collect_trace=True)
    sol = joint_optimize(ch, dbm_to_watts(spec.power_dbm[0]),
                         dbm_to_watts(spec.noise_dbm), cfg, rng)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trace.csv")
    with open(path, "w") as fh:
        fh.write("iter,error,nrmse,sum_rate\n")
        for row in sol.trace:
            fh.write(f"{row.iteration},{row.error!r},{row.nrmse!r},{row.sum_rate!r}\n")
    print(f"{len(sol.trace)} rows -> {path} (converged={sol.converged})")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"  {'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    return ok


def cmd_oracle(args) -> int:
    """Small-instance cross-checks of every numerical core against the oracles."""
    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    ok = True

    def cplx(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    a, b = cplx(3, 7), cplx(2, 7)
    svd = structured_svd(economy_svd(a), economy_svd(b))
    d = khatri_rao_columns(b, a)
    rel = np.linalg.norm(svd.reconstruct() - d) / np.linalg.norm(d)
    ok &= _check("khatri-rao product-form SVD reconstructs", rel < 1e-9, f"rel {rel:.2e}")

    svd_d = economy_svd(d)
    z = cplx(6)
    msg = ExtrinsicMessage(cplx(7), 0.7)
    z_tilde = (svd_d.U.conj().T @ z) / svd_d.omega
    got = lmmse_extrinsic(svd_d, z_tilde, msg, VampConfig(gamma_w=1.3))
    _, _, r_ref, g_ref = dense_lmmse(d, z, msg.r, msg.gamma, 1.3)
    diff = max(float(np.abs(got.r - r_ref).max()), abs(got.gamma - g_ref))
    ok &= _check("SVD-form linear pass matches dense form", diff < 1e-8, f"abs {diff:.2e}")

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

    h = cplx(4, 2)
    sol = mmse_precoder(h, 2.0, 0.05)
    a_ref, f_ref = precoder_reference(h, 2.0, 0.05)
    ok &= _check("precoder power constraint is exact",
                 abs(np.linalg.norm(sol.F) ** 2 - 2.0) < 1e-10 * 2.0)
    ok &= _check("precoder matches the literal closed form",
                 np.abs(sol.F - f_ref).max() < 1e-10 and abs(sol.alpha - a_ref) < 1e-10)
    search = random_precoder_search(h, 2.0, 0.05, 20_000, rng)
    from .oracles import precoder_objective
    ok &= _check("random precoder search never beats the closed form",
                 search >= precoder_objective(h, sol.F, 0.05) - 1e-6)

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
    common = _base_parser()
    parser = argparse.ArgumentParser(prog="irsbeam",
                                     description="reflective-surface beamforming simulator")
    parser.add_argument("--version", action="version", version=f"irsbeam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", parents=[common], help="run a Monte Carlo sweep")

    p_trace = sub.add_parser("trace", parents=[common],
                             help="per-iteration convergence dump for one seed")
    p_trace.add_argument("--constraint", choices=("unimodular", "reactive"),
                         default="unimodular")
    p_trace.add_argument("--exclude-direct", action="store_true",
                         help="zero the direct base-station-user link")

    sub.add_parser("oracle", parents=[common],
                   help="tiny-instance verification against reference oracles")

    p_chart = sub.add_parser("chart", parents=[common],
                             help="re-render charts from an aggregate CSV")
    p_chart.add_argument("--csv", required=True, help="aggregate CSV path")
    p_chart.add_argument("--x", default="K", help="x-axis column")
    p_chart.add_argument("--stat", default="sum_rate", choices=("sum_rate", "nrmse"))

    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "trace": cmd_trace, "oracle": cmd_oracle,
               "chart": cmd_chart}[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
