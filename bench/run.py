"""irsbeam benchmark: one seeded workload per run, end-to-end or traced.

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Workloads: desk-sweep, paper-solve, reactive-csi (see bench/workloads.py and
bench/README.md). Run from anywhere; the package is imported from the
`src/` directory next to this one, never from an installed copy.

--trace 0 reports the end-to-end metrics: set-up time, throughput and unit
latency over `--seconds` of work, peak memory, and quality metrics on a
fixed reference block. Every unit also runs on a frozen copy of irsbeam
(bench/frozen_irsbeam), and times are reported as the frozen copy's anchor
values times the ratio of the two, which cancels the host's changes of
speed. --trace 1 runs a block of units twice each, once
plain and once with every layer function wrapped, checks that both give the
same records, and reports per-layer calls, self time and share.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the environment and
every metric in readable form.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported, here and in
# the set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy and irsbeam are imported inside functions, after `setup` has started
# its clock, so that the set-up time includes importing them.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FROZEN = Path(__file__).resolve().parent / "frozen_irsbeam"
OUT = ROOT / ".bench_out"
TIMED_LIMIT_S = 120     # the timed phase stops here even short of the workload's min_units
SETUP_PROBES = 4        # fresh-interpreter set-ups timed per package, before and after the run


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["desk-sweep", "paper-solve", "reactive-csi"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process, print it and exit")
    ap.add_argument("--frozen", action="store_true",
                    help="with --setup-only: set up the frozen copy instead")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(name: str, seed: int, frozen: bool = False):
    """Import the package (irsbeam under test, or the frozen copy), build the
    workload's inputs, run one warm-up trial.

    Returns (workload, seconds taken).
    """
    start = time.perf_counter()
    pkg = load_frozen() if frozen else load_irsbeam()
    from workloads import WORKLOADS
    wl = WORKLOADS[name](pkg, seed)
    wl.warm_up()
    return wl, time.perf_counter() - start


def load_irsbeam():
    sys.path.insert(0, str(SRC))
    import irsbeam
    if not Path(irsbeam.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"irsbeam imported from {irsbeam.__file__}, not from {SRC}")
    return irsbeam


def load_frozen():
    """The frozen copy of irsbeam, imported as `irsbeam_frozen` so that it
    can sit beside the package under test (and out of reach of the tracer,
    which wraps only `irsbeam.*` modules)."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "irsbeam_frozen", FROZEN / "__init__.py", submodule_search_locations=[str(FROZEN)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def probe_setup(args, frozen: bool) -> float:
    """One set-up in a fresh interpreter, timed from inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    cmd += ["--frozen"] if frozen else []
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    """Versions, BLAS threads, CPU counts, and five samples of the host-speed
    kernel as a diagnostic."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "host_probe_ms": host_probe_ms(),
    }


def host_probe_ms() -> list:
    """Times of a fixed kernel that does not touch irsbeam: a pure-Python
    loop, small complex SVDs and solves, and tiny numpy operations. It shows
    how fast the host ran; on a host shared with other tenants it drifts by
    tens of percent within a minute."""
    import numpy as np
    rng = np.random.default_rng(0)
    tall = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
    square = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    small = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    out = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(12_000):
            acc += i * i
        for _ in range(8):
            np.linalg.svd(tall, full_matrices=False)
            np.linalg.solve(square, square)
        for _ in range(30):
            a = np.kron(small, small)
            np.linalg.norm(a.conj().T @ a)
            np.abs(a).sum()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Tally:
    """Trials attempted and failed; failures are exceptions, non-finite
    outputs and failed checks."""

    def __init__(self):
        self.attempted = 0
        self._failed = 0
        self.notes: dict[str, int] = {}

    def fail(self, count: int, note: str) -> None:
        self._failed += count
        self.notes[note] = self.notes.get(note, 0) + 1

    @property
    def failed(self) -> int:
        # one trial can fail more than one check
        return min(self._failed, self.attempted)


def run_unit(fn, index: int, trials: int, tally: Tally):
    """Run one unit; returns (records or None, wall seconds)."""
    tally.attempted += trials
    t0 = time.perf_counter()
    try:
        records = fn(index)
    except Exception:
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        tally.fail(trials, f"unit {index} raised")
        return None, wall
    return records, time.perf_counter() - t0


def check_records(records, expected: int, tally: Tally, what: str) -> None:
    if records is None:
        return
    if len(records) != expected:
        tally.fail(abs(expected - len(records)),
                   f"{what}: {len(records)} records, expected {expected}")
    bad = sum(not (math.isfinite(r.sum_rate) and math.isfinite(r.nrmse)) for r in records)
    if bad:
        tally.fail(bad, f"{what}: {bad} records with a non-finite sum_rate or nrmse")


def check_probe(probe, tally: Tally) -> None:
    print(f"# checks: {probe.solves} joint_optimize solutions checked, {probe.bad} failed; "
          f"{probe.iterations} outer iterations")
    if probe.bad:
        tally.fail(probe.bad, "solution off its power or constraint set, or not finite")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_phase(wl, frozen, seconds: float, tally: Tally) -> dict:
    """End-to-end run: units from the workload seed for `seconds` (and at
    least `wl.min_units` of them), then the reference block for the quality
    metrics.

    Each unit runs twice in a row, on irsbeam and on the frozen copy,
    alternating which goes first, so both see the same moment of the host's
    load. Throughput and latency are reported at the host speed of the
    baseline: the frozen copy's anchor values times the ratio of the two
    packages' times, summed over units for throughput and the median of the
    per-unit ratios for latency.

    Each unit's records are checked when it ends and then dropped, and the
    probe keeps only counts, so peak memory does not grow with the number of
    units run.
    """
    import numpy as np
    from tracer import SolveProbe
    from workloads import ANCHORS

    probe = SolveProbe()
    walls, frozen_walls = [], []
    trials_done = 0
    with probe.installed():
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= TIMED_LIMIT_S or (elapsed >= seconds and len(walls) >= wl.min_units):
                break
            i = len(walls)
            for own in ((True, False) if i % 2 == 0 else (False, True)):
                if own:
                    recs, wall = run_unit(wl.unit, i, wl.unit_trials, tally)
                    walls.append(wall)
                    check_records(recs, wl.unit_trials, tally, f"unit {i}")
                    trials_done += wl.unit_trials if recs is not None else 0
                else:
                    t0 = time.perf_counter()
                    frozen.unit(i)
                    frozen_walls.append(time.perf_counter() - t0)
        reference = []
        for j in range(wl.reference_units):
            recs, _ = run_unit(wl.reference_unit, j, wl.reference_trials, tally)
            check_records(recs, wl.reference_trials, tally, f"reference unit {j}")
            reference.extend(recs or [])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_probe(probe, tally)
    if len(walls) < wl.min_units:
        tally.fail(wl.min_units - len(walls), f"only {len(walls)} units in {TIMED_LIMIT_S} s")

    ms, frozen_ms = np.array(walls) * 1e3, np.array(frozen_walls) * 1e3
    anchor_rate, anchor_p50, _ = ANCHORS[wl.name]
    raw_rate = trials_done / ms.sum() * 1e3
    raw_p50 = float(np.median(ms))
    rate_ratio = frozen_ms.sum() / ms.sum() * trials_done / (ms.size * wl.unit_trials)
    p50_ratio = float(np.median(ms / frozen_ms))
    opt = [r for r in reference if r.scheme.startswith("vamp_")]
    iters = np.array([r.iters for r in opt], dtype=float)
    p90 = float(np.percentile(ms, 90))
    # p90 is printed but not gated: on a host shared with other tenants,
    # sub-second slowdowns of up to 2x land on single short units and move it
    # by more than any useful bound.
    print(f"# timed: {len(walls)} units, {trials_done} trials in {ms.sum() / 1e3:.3f} s, "
          f"frozen copy {frozen_ms.sum() / 1e3:.3f} s; latency_ms_p90 {p90} (raw) from "
          f"{ms.size} samples, {int(np.sum(ms > p90))} beyond it; "
          f"reference: {len(opt)} optimized trials")
    print(f"# raw: trials_per_s {raw_rate} latency_ms_p50 {raw_p50} "
          f"frozen_trials_per_s {trials_done / frozen_ms.sum() * 1e3} "
          f"frozen_latency_ms_p50 {float(np.median(frozen_ms))}")
    return {
        "trials_per_s": metric(anchor_rate * rate_ratio, "1/s"),
        "latency_ms_p50": metric(anchor_p50 * p50_ratio, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "sum_rate_median": metric(float(np.median([r.sum_rate for r in opt])), "bit/s/Hz"),
        "nrmse_median": metric(float(np.median([r.nrmse for r in opt])), "ratio"),
        "iters_mean": metric(float(iters.mean()), "count"),
        "below_cap_frac": metric(float(np.mean(iters < wl.t_max_outer)), "ratio"),
    }


def traced_phase(wl, seconds: float, seed: int, tally: Tally) -> dict:
    """Per-layer run: a fixed block of units sized to about `seconds`, each
    run plain and traced (alternating which goes first)."""
    from tracer import LAYERS, SolveProbe, Tracer

    units = max(2, round(seconds / (2.0 * wl.unit_s)))
    probe, tracer = SolveProbe(), Tracer()
    wall_plain = wall_traced = 0.0
    for i in range(units):
        results = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                # the probe is installed first, so its checks count as joint_optimize time
                with probe.installed(), tracer.installed():
                    results[traced] = run_unit(wl.unit, i, wl.unit_trials, tally)
                wall_traced += results[traced][1]
            else:
                results[traced] = run_unit(wl.unit, i, wl.unit_trials, tally)
                wall_plain += results[traced][1]
            check_records(results[traced][0], wl.unit_trials, tally, f"unit {i}")
        plain, traced_recs = results[False][0], results[True][0]
        if plain is not None and traced_recs is not None and plain != traced_recs:
            diff = sum(a != b for a, b in zip(plain, traced_recs))
            tally.fail(max(diff, 1), f"unit {i}: traced records differ from plain ones")
    check_probe(probe, tally)

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}-seed{seed}.npz")
    summary = tracer.summary()
    absent = [name for name, _, _ in LAYERS if name not in tracer.present]
    print(f"# traced: {units} units, {len(tracer.t0)} spans; absent layers: {absent or 'none'}")

    out = {}
    for name, layer in summary["layers"].items():
        out[f"{name}.calls"] = metric(layer["calls"], "count")
        out[f"{name}.self_ms"] = metric(layer["self_ms"], "ms")
        out[f"{name}.share"] = metric(layer["self_ms"] / 1e3 / wall_traced, "ratio")
    layers = summary["layers"]
    channels = units * wl.unit_channels
    out["channel.calls_per_channel"] = metric(
        layers["channel.sample_channel_set"]["calls"] / channels if channels else 0.0, "ratio")
    eff_calls = tracer.calls_under("precoding.effective_channel", "altopt.joint_optimize")
    out["precoding.effective_channel.calls_per_iter"] = metric(
        eff_calls / probe.iterations if probe.iterations else 0.0, "ratio")
    out["vamp.lmmse_clamps"] = metric(probe.lmmse_clamps, "count")
    out["vamp.projector_clamps"] = metric(probe.projector_clamps, "count")
    out["altopt.iters_total"] = metric(probe.iterations, "count")
    out["altopt.converged_frac"] = metric(
        probe.converged / probe.solves if probe.solves else 0.0, "ratio")
    out["trace.overhead"] = metric(wall_traced / wall_plain - 1.0, "ratio")
    out["trace.untraced_share"] = metric((wall_traced - summary["root_s"]) / wall_traced, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "irsbeam" / "__init__.py").is_file():
        print(f"error: no irsbeam package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, took = setup(args.workload, args.seed, frozen=args.frozen)
        print(json.dumps({"setup_s": took}))
        return 0

    wl, _ = setup(args.workload, args.seed)
    print("# environment " + json.dumps(environment()))

    tally = Tally()
    if args.trace:
        metrics = traced_phase(wl, args.seconds, args.seed, tally)
    else:
        from workloads import ANCHORS
        frozen, _ = setup(args.workload, args.seed, frozen=True)
        # set-ups of the two packages alternate in fresh interpreters, half
        # before the timed phase and half after it, so that both medians span
        # the same stretch of the host's load
        setups = {False: [], True: []}
        for k in range(2 * SETUP_PROBES):
            if k == SETUP_PROBES:
                metrics = timed_phase(wl, frozen, args.seconds, tally)
            setups[k % 2 == 1].append(probe_setup(args, frozen=k % 2 == 1))
        own, ref = statistics.median(setups[False]), statistics.median(setups[True])
        print(f"# raw: setup_s {own} frozen_setup_s {ref}")
        metrics["setup_s"] = metric(ANCHORS[wl.name][2] * own / ref, "s")
        metrics["success_frac"] = metric(1.0 - tally.failed / tally.attempted, "ratio")
    for note, times in tally.notes.items():
        print(f"# check failed ({times}x): {note}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
