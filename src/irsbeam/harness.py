"""Seeded Monte Carlo experiment runner.

An ExperimentSpec describes a sweep (array sizes, transmit powers, CSI
quality, schemes); run_sweep expands it into cells, runs seeded trials, and
returns per-trial records plus per-cell aggregates. Every trial derives its
generators from (base_seed, cell indices, trial index), so a sweep is a pure
function of the spec: reruns produce identical records (byte-identical CSV
when timing capture is off). Each true channel is drawn once per (dims,
trial) and reused across powers, CSI qualities and schemes, which pairs the
comparisons.

When kappa < 1 the true channel is perturbed once per (kappa, trial); the
optimizer sees the perturbed channels and all metrics are evaluated on the
true ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from itertools import product
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .altopt import BeamformingSolution, OptimizerConfig, joint_optimize
from .channel import (ChannelParams, ChannelSet, SystemDims, perturb_csi,
                      sample_channel_set)
from .metrics import nrmse, sum_rate
from .oracles import GRID_MAX_K, grid_phase_search
from .precoding import effective_channel, mmse_precoder
from .vamp import VampConfig, VampDiagnostics


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class ExperimentSpec:
    """A sweep; its fields, those of `channel` inlined, are the spec keys."""

    scenario: str = "B"
    n_bs: list[int] = field(default_factory=lambda: [8])
    n_users: list[int] = field(default_factory=lambda: [2])
    n_irs: list[int] = field(default_factory=lambda: [16, 36, 64])
    power_dbm: list[float] = field(default_factory=lambda: [30.0])
    kappa: list[float] = field(default_factory=lambda: [1.0])
    schemes: list[str] = field(default_factory=lambda: ["vamp_unimodular", "random_phase_irs"])
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
        """Reject a spec that cannot run, naming the key; ChannelParams checks its own."""
        for name in ("n_bs", "n_users", "n_irs", "power_dbm", "kappa", "schemes"):
            if not getattr(self, name):
                raise ValueError(f"spec.{name}: must be a non-empty list")
        for key, ok, rule in (
                ("scenario", self.scenario in ("A", "B"), "A or B"),
                ("schemes", all(s in SCHEMES for s in self.schemes), f"among {SCHEMES}"),
                ("kappa", all(0.0 <= k <= 1.0 for k in self.kappa), "values in [0, 1]"),
                ("power_dbm", all(np.isfinite(self.power_dbm)), "finite values"),
                ("noise_dbm", np.isfinite(self.noise_dbm), "finite"),
                ("trials", self.trials >= 1, ">= 1"),
                ("base_seed", self.base_seed >= 0, "non-negative"),
                ("n_irs", "grid_oracle_tiny" not in self.schemes or max(self.n_irs) <= GRID_MAX_K,
                 f"<= {GRID_MAX_K} with grid_oracle_tiny")):
            if not ok:
                raise ValueError(f"spec.{key}: must be {rule}, got {getattr(self, key)!r}")
        for n, m, k in product(self.n_bs, self.n_users, self.n_irs):
            try:
                SystemDims(n, m, k)
            except ValueError as exc:
                raise ValueError(f"spec.n_bs/n_users/n_irs: {exc}") from None
        try:
            self.optimizer_config("unimodular")
        except ValueError as exc:
            raise ValueError(f"spec.{exc}") from None

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


CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))

# The aggregate columns in order, with their types: the cell key, typed as in
# TrialRecord, the trial count, then each statistic of each metric.
# aggregate() builds its rows from this and load_aggregate_csv() parses with it.
_CELL_KEY = ("scheme", "N", "M", "K", "power_dbm", "kappa")
_METRICS = ("sum_rate", "nrmse")
_STATS = {"mean": np.mean, "median": np.median,
          "p10": lambda x: np.percentile(x, 10), "p90": lambda x: np.percentile(x, 90)}
AGGREGATE_COLUMNS = {**{c: get_type_hints(TrialRecord)[c] for c in _CELL_KEY}, "trials": int,
                     **{f"{m}_{s}": float for m in _METRICS for s in _STATS}}


def spec_keys() -> dict:
    """Spec key -> type, in field order, ChannelParams's fields in place of `channel`."""
    keys = {}
    for name, typ in get_type_hints(ExperimentSpec).items():
        keys.update(get_type_hints(ChannelParams) if name == "channel" else {name: typ})
    return keys


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
    keys = spec_keys()
    channel_keys = {f.name for f in fields(ChannelParams)}
    spec_kwargs, channel_kwargs = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"spec line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key == "c0_db":
            channel_kwargs["c0"] = 10.0 ** (_parse_value(key, raw, float) / 10.0)
            continue
        if key not in keys:
            raise ValueError(f"spec.{key}: unknown key; have {', '.join(keys)}, c0_db")
        typ = keys[key]
        if get_origin(typ) is list:
            value = [_parse_value(key, tok, get_args(typ)[0])
                     for tok in raw.split(",") if tok.strip()]
        else:
            value = _parse_value(key, raw, typ)
        (channel_kwargs if key in channel_keys else spec_kwargs)[key] = value
    try:
        channel = ChannelParams(**channel_kwargs)
    except ValueError as exc:
        raise ValueError(f"spec.{exc}") from None
    spec = ExperimentSpec(**spec_kwargs, channel=channel)
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


def baseline_grid_oracle(ch: ChannelSet, power: float, noise_var: float) -> BeamformingSolution:
    """Exhaustive phase-grid search (tiny K only) with the closed-form precoder."""
    ups, _ = grid_phase_search(ch, power, noise_var)
    sol = mmse_precoder(effective_channel(ch, ups), power, noise_var)
    return BeamformingSolution(ups, sol.F, sol.alpha, 0, True, [], VampDiagnostics())


# scheme -> design(spec, ch_known, power, noise_var, rng). The position of a
# scheme seeds its optimizer stream, so the order is fixed. The designs look
# joint_optimize and the baselines up when they run, not when the table is
# built, so a rebinding of those module attributes reaches every call.
_DESIGNS = {
    "vamp_unimodular": lambda spec, ch, p, nv, rng: joint_optimize(
        ch, p, nv, spec.optimizer_config("unimodular"), rng),
    "vamp_reactive": lambda spec, ch, p, nv, rng: joint_optimize(
        ch, p, nv, spec.optimizer_config("reactive"), rng),
    "random_phase_irs": lambda spec, ch, p, nv, rng: baseline_random_phase(ch, p, nv, rng),
    "no_irs_mmse": lambda spec, ch, p, nv, rng: baseline_no_irs(ch, p, nv),
    "grid_oracle_tiny": lambda spec, ch, p, nv, rng: baseline_grid_oracle(ch, p, nv),
}
SCHEMES = tuple(_DESIGNS)


def run_trial(spec: ExperimentSpec, scheme: str, ch: ChannelSet, ch_known: ChannelSet,
              power_dbm: float, kappa: float, cell_idx: tuple, trial: int) -> TrialRecord:
    """One seeded trial of one scheme in one sweep cell.

    The scheme designs on ch_known (the estimated channels, or ch itself when
    kappa = 1); sum-rate and NRMSE are evaluated on the true channels ch.
    """
    import time

    i_n, i_m, i_k = cell_idx[:3]
    n, m, k = ch.dims
    power = dbm_to_watts(power_dbm)
    noise_var = dbm_to_watts(spec.noise_dbm)
    scheme_id = SCHEMES.index(scheme)
    opt_rng = _stream(spec.base_seed, 17, i_n, i_m, i_k, scheme_id, trial)

    start = time.perf_counter()
    sol = _DESIGNS[scheme](spec, ch_known, power, noise_var, opt_rng)
    elapsed_ms = (time.perf_counter() - start) * 1e3

    eval_ch = ch.without_irs() if scheme == "no_irs_mmse" else ch
    rate = sum_rate(eval_ch, sol.upsilon, sol.F, noise_var)
    err = nrmse(sol.alpha, sol.upsilon, sol.F, eval_ch, noise_var)
    return TrialRecord(scheme, trial, n, m, k, power_dbm, kappa,
                       rate, err, sol.iterations,
                       elapsed_ms if spec.record_timing else 0.0)


def _cells(spec: ExperimentSpec):
    for i_n, n in enumerate(spec.n_bs):
        for i_m, m in enumerate(spec.n_users):
            for i_k, k in enumerate(spec.n_irs):
                for i_p, p in enumerate(spec.power_dbm):
                    for i_q, q in enumerate(spec.kappa):
                        yield (i_n, i_m, i_k, i_p, i_q), SystemDims(n, m, k), p, q


def run_sweep(spec: ExperimentSpec, progress=None):
    """Run every (cell, scheme, trial) task; returns (records, aggregates).

    Each true channel is drawn once per (dims, trial) and, when kappa < 1,
    perturbed once per (kappa, trial); every power, kappa and scheme of that
    dims then runs on it before the next channel is drawn. Records come back
    in the canonical (cell, scheme, trial) order whatever the run order;
    `progress` is called with each record as it completes, in run order.
    """
    spec.validate()
    cells = list(_cells(spec))
    n_schemes, n_trials = len(spec.schemes), spec.trials
    per_dims = len(spec.power_dbm) * len(spec.kappa)
    records: list = [None] * (len(cells) * n_schemes * n_trials)
    for first in range(0, len(cells), per_dims):
        group = cells[first:first + per_dims]
        (i_n, i_m, i_k, _, _), dims, _, _ = group[0]
        for trial in range(n_trials):
            ch = sample_channel_set(_stream(spec.base_seed, 11, i_n, i_m, i_k, trial),
                                    dims, spec.channel, spec.scenario)
            known = [perturb_csi(ch, kappa,
                                 _stream(spec.base_seed, 13, i_n, i_m, i_k, i_q, trial),
                                 spec.channel) if kappa < 1.0 else ch
                     for i_q, kappa in enumerate(spec.kappa)]
            for c, (cell_idx, _, power_dbm, kappa) in enumerate(group, start=first):
                for i_s, scheme in enumerate(spec.schemes):
                    rec = run_trial(spec, scheme, ch, known[cell_idx[4]], power_dbm, kappa,
                                    cell_idx, trial)
                    records[(c * n_schemes + i_s) * n_trials + trial] = rec
                    if progress is not None:
                        progress(rec)
    return records, aggregate(records)


def aggregate(records: list) -> list[dict]:
    """Per-cell mean/median/p10/p90 of sum-rate and fit error, one row per cell
    in cell-key order, with the columns and types of AGGREGATE_COLUMNS."""
    cells: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        cells.setdefault(tuple(getattr(rec, c) for c in _CELL_KEY), []).append(rec)
    out = []
    for key in sorted(cells):
        group = cells[key]
        values = [*key, len(group)]
        for metric in _METRICS:
            x = np.array([getattr(r, metric) for r in group])
            values += [stat(x) for stat in _STATS.values()]
        out.append({c: typ(v) for (c, typ), v in zip(AGGREGATE_COLUMNS.items(), values)})
    return out


def _write_csv(path, columns: list[str], rows) -> None:
    """Header, then one line per row; floats as repr, so reruns are byte-identical."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def emit_csv(records: list, path) -> None:
    """Trial records as CSV with the fixed schema CSV_HEADER."""
    if not records:
        raise ValueError("emit_csv: no records")
    columns = CSV_HEADER.split(",")
    _write_csv(path, columns, ([getattr(r, c) for c in columns] for r in records))


def emit_aggregate_csv(aggregates: list[dict], path) -> None:
    if not aggregates:
        raise ValueError("emit_aggregate_csv: no aggregates")
    columns = list(AGGREGATE_COLUMNS)
    _write_csv(path, columns, ([row[c] for c in columns] for row in aggregates))


def load_aggregate_csv(path) -> list[dict]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(AGGREGATE_COLUMNS):
            raise ValueError(f"{path}: header is not {','.join(AGGREGATE_COLUMNS)}")
        return [{c: typ(v) for (c, typ), v in zip(AGGREGATE_COLUMNS.items(),
                                                  line.strip().split(","))}
                for line in fh]
