"""Seeded Monte Carlo experiment runner.

An ExperimentSpec describes a sweep (array sizes, transmit powers, CSI
quality, schemes); run_sweep expands it into cells, runs seeded trials, and
returns per-trial records plus per-cell aggregates. Every trial derives its
generators from (base_seed, cell indices, trial index), so a sweep is a pure
function of the spec: reruns produce identical records (byte-identical CSV
when timing capture is off). Channels are shared across schemes, powers and
CSI qualities at a fixed (dims, trial), which pairs the comparisons.

When kappa < 1 the optimizer sees the perturbed channels and all metrics are
evaluated on the true ones.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .altopt import BeamformingSolution, OptimizerConfig, joint_optimize
from .channel import (ChannelParams, ChannelSet, SystemDims, perturb_csi,
                      sample_channel_set)
from .metrics import nrmse, sum_rate
from .oracles import grid_phase_search
from .precoding import effective_channel, mmse_precoder
from .vamp import VampConfig, VampDiagnostics

SCHEMES = ("vamp_unimodular", "vamp_reactive", "random_phase_irs",
           "no_irs_mmse", "grid_oracle_tiny")
CSV_HEADER = "scheme,seed,N,M,K,power_dbm,kappa,sum_rate,nrmse,iters,ms"


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class ExperimentSpec:
    scenario: str = "B"
    n_bs: list = field(default_factory=lambda: [8])
    n_users: list = field(default_factory=lambda: [2])
    n_irs: list = field(default_factory=lambda: [16, 36, 64])
    power_dbm: list = field(default_factory=lambda: [30.0])
    kappa: list = field(default_factory=lambda: [1.0])
    schemes: list = field(default_factory=lambda: ["vamp_unimodular", "random_phase_irs"])
    trials: int = 100
    base_seed: int = 7
    noise_dbm: float = -100.0
    channel: ChannelParams = field(default_factory=ChannelParams)
    epsilon_outer: float = 1e-3
    t_max_outer: int = 100
    inner_iters: int = 1
    carryover: str = "extrinsic"
    rho: float = 0.9
    gamma_w: float = 1.0
    gamma_0: float = 0.1
    record_timing: bool = True

    def validate(self) -> None:
        if self.scenario not in ("A", "B"):
            raise ValueError(f"spec.scenario: must be A or B, got {self.scenario!r}")
        for name in ("n_bs", "n_users", "n_irs", "power_dbm", "kappa", "schemes"):
            if not getattr(self, name):
                raise ValueError(f"spec.{name}: must be a non-empty list")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"spec.schemes: unknown scheme {s!r}; have {SCHEMES}")
        for k in self.kappa:
            if not 0.0 <= k <= 1.0:
                raise ValueError(f"spec.kappa: values must lie in [0, 1], got {k}")
        if self.trials < 1:
            raise ValueError(f"spec.trials: must be >= 1, got {self.trials}")
        if self.base_seed < 0:
            raise ValueError("spec.base_seed: must be non-negative")

    def optimizer_config(self, constraint: str, collect_trace: bool = False) -> OptimizerConfig:
        return OptimizerConfig(
            vamp=VampConfig(gamma_w=self.gamma_w, rho=self.rho, gamma_0=self.gamma_0),
            epsilon_outer=self.epsilon_outer,
            t_max_outer=self.t_max_outer,
            constraint=constraint,
            inner_iters=self.inner_iters,
            carryover=self.carryover,
            collect_trace=collect_trace,
        )


@dataclass
class TrialRecord:
    scheme: str
    seed: int
    N: int
    M: int
    K: int
    power_dbm: float
    kappa: float
    sum_rate: float
    nrmse: float
    iters: int
    ms: float


_SPEC_LIST_KEYS = {
    "n_bs": int, "n_users": int, "n_irs": int,
    "power_dbm": float, "kappa": float, "schemes": str,
}
_SPEC_SCALAR_KEYS = {
    "scenario": str, "trials": int, "base_seed": int, "noise_dbm": float,
    "epsilon_outer": float, "t_max_outer": int, "inner_iters": int,
    "carryover": str, "rho": float, "gamma_w": float, "gamma_0": float,
    "record_timing": bool,
}
_CHANNEL_KEYS = {f.name: f.type for f in fields(ChannelParams)}


def _parse_value(key: str, raw: str, typ):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "on", "yes", "1"):
            return True
        if raw.lower() in ("false", "off", "no", "0"):
            return False
        raise ValueError(f"spec.{key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ValueError(f"spec.{key}: cannot parse {raw!r} as {typ.__name__}") from None


def parse_spec(text: str) -> ExperimentSpec:
    """Parse the flat key/value spec format (one `key = value` per line,
    comma-separated lists, # comments)."""
    spec = ExperimentSpec()
    channel_kwargs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"spec line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in _SPEC_LIST_KEYS:
            typ = _SPEC_LIST_KEYS[key]
            values = [_parse_value(key, tok, typ) for tok in raw.split(",") if tok.strip()]
            setattr(spec, key, values)
        elif key in _SPEC_SCALAR_KEYS:
            setattr(spec, key, _parse_value(key, raw, _SPEC_SCALAR_KEYS[key]))
        elif key == "user_min":
            channel_kwargs["user_range"] = (_parse_value(key, raw, float),
                                            channel_kwargs.get("user_range", (10.0, 50.0))[1])
        elif key == "user_max":
            channel_kwargs["user_range"] = (channel_kwargs.get("user_range", (10.0, 50.0))[0],
                                            _parse_value(key, raw, float))
        elif key == "c0_db":
            channel_kwargs["c0"] = 10.0 ** (_parse_value(key, raw, float) / 10.0)
        elif key in _CHANNEL_KEYS:
            typ = int if key.startswith("q_") else float
            channel_kwargs[key] = _parse_value(key, raw, typ)
        else:
            raise ValueError(f"spec.{key}: unknown key")
    if channel_kwargs:
        spec.channel = replace(ChannelParams(), **channel_kwargs)
    spec.validate()
    return spec


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        return parse_spec(fh.read())


def desk_spec() -> ExperimentSpec:
    """Shrunk sweep that preserves every propagation constant: N=8, M=2,
    K up to 64, 100 trials. The scaled no-reflector baseline (3x antennas)
    is a separate one-cell spec, see the README."""
    return ExperimentSpec(
        scenario="B", n_bs=[8], n_users=[2], n_irs=[16, 36, 64],
        power_dbm=[10.0, 20.0, 30.0], kappa=[1.0],
        schemes=["vamp_unimodular", "vamp_reactive", "random_phase_irs", "no_irs_mmse"],
        trials=100,
    )


def paper_spec() -> ExperimentSpec:
    """Full-size sweep (N=32, M=8, K=256, 1000 trials); hours of compute."""
    return ExperimentSpec(
        scenario="B", n_bs=[32], n_users=[8], n_irs=[256],
        power_dbm=[10.0, 20.0, 30.0], kappa=[1.0],
        schemes=["vamp_unimodular", "vamp_reactive", "random_phase_irs", "no_irs_mmse"],
        trials=1000,
    )


def _stream(base_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base_seed, *key]))


def baseline_random_phase(ch: ChannelSet, power: float, noise_var: float,
                          rng: np.random.Generator) -> BeamformingSolution:
    """Unoptimized reflector phases (i.i.d. uniform) with the closed-form precoder."""
    k = ch.H_bs.shape[0]
    upsilon = np.exp(2j * np.pi * rng.random(k))
    sol = mmse_precoder(effective_channel(ch, upsilon), power, noise_var)
    return BeamformingSolution(upsilon, sol.F, sol.alpha, 0, True, [],
                               VampDiagnostics())


def baseline_no_irs(ch: ChannelSet, power: float, noise_var: float) -> BeamformingSolution:
    """Closed-form precoder on the direct link only (reflector path zeroed)."""
    bare = ch.without_irs()
    k = ch.H_bs.shape[0]
    sol = mmse_precoder(effective_channel(bare, np.ones(k, dtype=complex)),
                        power, noise_var)
    return BeamformingSolution(np.ones(k, dtype=complex), sol.F, sol.alpha, 0,
                               True, [], VampDiagnostics())


def run_trial(spec: ExperimentSpec, scheme: str, dims: SystemDims, power_dbm: float,
              kappa: float, cell_idx: tuple, trial: int) -> TrialRecord:
    """One seeded trial of one scheme in one sweep cell."""
    import time

    i_n, i_m, i_k, i_p, i_q = cell_idx
    power = dbm_to_watts(power_dbm)
    noise_var = dbm_to_watts(spec.noise_dbm)
    scheme_id = SCHEMES.index(scheme)

    channel_rng = _stream(spec.base_seed, 11, i_n, i_m, i_k, trial)
    ch = sample_channel_set(channel_rng, dims, spec.channel, spec.scenario)
    if kappa < 1.0:
        csi_rng = _stream(spec.base_seed, 13, i_n, i_m, i_k, i_q, trial)
        ch_known = perturb_csi(ch, kappa, csi_rng, spec.channel)
    else:
        ch_known = ch
    opt_rng = _stream(spec.base_seed, 17, i_n, i_m, i_k, scheme_id, trial)

    start = time.perf_counter()
    if scheme == "vamp_unimodular":
        sol = joint_optimize(ch_known, power, noise_var,
                             spec.optimizer_config("unimodular"), opt_rng)
        eval_ch = ch
    elif scheme == "vamp_reactive":
        sol = joint_optimize(ch_known, power, noise_var,
                             spec.optimizer_config("reactive"), opt_rng)
        eval_ch = ch
    elif scheme == "random_phase_irs":
        sol = baseline_random_phase(ch_known, power, noise_var, opt_rng)
        eval_ch = ch
    elif scheme == "no_irs_mmse":
        sol = baseline_no_irs(ch_known, power, noise_var)
        eval_ch = ch.without_irs()
    elif scheme == "grid_oracle_tiny":
        ups, _ = grid_phase_search(ch_known, power, noise_var)
        psol = mmse_precoder(effective_channel(ch_known, ups), power, noise_var)
        sol = BeamformingSolution(ups, psol.F, psol.alpha, 0, True, [],
                                  VampDiagnostics())
        eval_ch = ch
    else:
        raise ValueError(f"run_trial: unknown scheme {scheme!r}")
    elapsed_ms = (time.perf_counter() - start) * 1e3

    rate = sum_rate(eval_ch, sol.upsilon, sol.F, noise_var)
    err = nrmse(sol.alpha, sol.upsilon, sol.F, eval_ch, noise_var)
    return TrialRecord(scheme, trial, dims.N, dims.M, dims.K, power_dbm, kappa,
                       rate, err, sol.iterations,
                       elapsed_ms if spec.record_timing else 0.0)


def _cells(spec: ExperimentSpec):
    for i_n, n in enumerate(spec.n_bs):
        for i_m, m in enumerate(spec.n_users):
            for i_k, k in enumerate(spec.n_irs):
                for i_p, p in enumerate(spec.power_dbm):
                    for i_q, q in enumerate(spec.kappa):
                        yield (i_n, i_m, i_k, i_p, i_q), SystemDims(n, m, k), p, q


def run_sweep(spec: ExperimentSpec, threads: int = 1, progress=None):
    """Run every (cell, scheme, trial) task; returns (records, aggregates).

    Record order is deterministic and independent of thread scheduling.
    """
    spec.validate()
    tasks = [
        (scheme, dims, power_dbm, kappa, cell_idx, trial)
        for cell_idx, dims, power_dbm, kappa in _cells(spec)
        for scheme in spec.schemes
        for trial in range(spec.trials)
    ]

    def work(args):
        scheme, dims, power_dbm, kappa, cell_idx, trial = args
        rec = run_trial(spec, scheme, dims, power_dbm, kappa, cell_idx, trial)
        if progress is not None:
            progress(rec)
        return rec

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(work, tasks))
    else:
        records = [work(t) for t in tasks]
    return records, aggregate(records)


def aggregate(records: list) -> list[dict]:
    """Per-cell mean/median/p10/p90 of sum-rate and fit error."""
    cells: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        key = (rec.scheme, rec.N, rec.M, rec.K, rec.power_dbm, rec.kappa)
        cells.setdefault(key, []).append(rec)
    out = []
    for key in sorted(cells, key=lambda k: (k[0], k[1], k[2], k[3], k[4], k[5])):
        group = cells[key]
        rates = np.array([r.sum_rate for r in group])
        errs = np.array([r.nrmse for r in group])
        scheme, n, m, k, power_dbm, kappa = key
        out.append({
            "scheme": scheme, "N": n, "M": m, "K": k,
            "power_dbm": power_dbm, "kappa": kappa, "trials": len(group),
            "sum_rate_mean": float(rates.mean()),
            "sum_rate_median": float(np.median(rates)),
            "sum_rate_p10": float(np.percentile(rates, 10)),
            "sum_rate_p90": float(np.percentile(rates, 90)),
            "nrmse_mean": float(errs.mean()),
            "nrmse_median": float(np.median(errs)),
            "nrmse_p10": float(np.percentile(errs, 10)),
            "nrmse_p90": float(np.percentile(errs, 90)),
        })
    return out


def emit_csv(records: list, path) -> None:
    """Trial records as CSV with the fixed schema; floats use repr so reruns
    of a timing-free sweep are byte-identical."""
    if not records:
        raise ValueError("emit_csv: no records")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(f"{r.scheme},{r.seed},{r.N},{r.M},{r.K},{r.power_dbm!r},"
                     f"{r.kappa!r},{r.sum_rate!r},{r.nrmse!r},{r.iters},{r.ms!r}\n")


def emit_aggregate_csv(aggregates: list[dict], path) -> None:
    if not aggregates:
        raise ValueError("emit_aggregate_csv: no aggregates")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    cols = list(aggregates[0])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in aggregates:
            fh.write(",".join(
                repr(row[c]) if isinstance(row[c], float) else str(row[c])
                for c in cols) + "\n")


def load_aggregate_csv(path) -> list[dict]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            vals = line.strip().split(",")
            row = {}
            for key, val in zip(header, vals):
                if key in ("scheme",):
                    row[key] = val
                elif key in ("N", "M", "K", "trials"):
                    row[key] = int(val)
                else:
                    row[key] = float(val)
            rows.append(row)
    return rows
