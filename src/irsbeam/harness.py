"""Seeded Monte Carlo experiment runner.

An ExperimentSpec describes a sweep (array sizes, transmit powers, CSI
quality, schemes) and is checked when it is built; run_sweep runs one seeded
trial per (cell, scheme, trial) and returns per-trial records plus per-cell
aggregates. Every trial derives its generators from (base_seed, cell
indices, trial index), so a sweep is a pure function of the spec: reruns
produce identical records (byte-identical CSV when timing capture is off).
Each true channel is drawn once per (dims, trial) and reused across powers,
CSI qualities and schemes, which pairs the comparisons.

When kappa < 1 the true channel is perturbed once per (kappa, trial); the
optimizer sees the perturbed channels and all metrics are evaluated on the
true ones. The baselines are the closed-form precoder at fixed reflection
coefficients (fixed_phase_design): random phases, all zeros (no reflector)
or the best point of the exhaustive phase grid.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product
from numbers import Integral
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .altopt import BeamformingSolution, OptimizerConfig, joint_optimize
from .channel import (ChannelParams, ChannelSet, SystemDims, perturb_csi,
                      sample_channel_set)
from .metrics import nrmse, sum_rate
from .oracles import GRID_MAX_K, grid_phase_search
from .precoding import effective_channel, mmse_precoder
from .projectors import UNIMODULAR
from .vamp import VampDiagnostics


def dbm_to_watts(dbm: float) -> float:
    """The power in watts; inf where a Python float overflows."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep; its fields, those of `channel` inlined, are the spec keys.
    Building one refuses a spec that cannot run, naming the key. The swept
    fields are stored as tuples, whatever sequence they were given as, so a
    built spec cannot change after its checks."""

    scenario: str = "B"
    n_bs: tuple[int, ...] = (8,)
    n_users: tuple[int, ...] = (2,)
    n_irs: tuple[int, ...] = (16, 36, 64)
    power_dbm: tuple[float, ...] = (30.0,)
    kappa: tuple[float, ...] = (1.0,)
    schemes: tuple[str, ...] = ("vamp_unimodular", "random_phase_irs")
    trials: int = 100
    base_seed: int = 7
    noise_dbm: float = -100.0
    channel: ChannelParams = field(default_factory=ChannelParams)
    epsilon_outer: float = OptimizerConfig.epsilon_outer
    t_max_outer: int = OptimizerConfig.t_max_outer
    record_timing: bool = True

    def __post_init__(self):
        for name in ("n_bs", "n_users", "n_irs", "power_dbm", "kappa", "schemes"):
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if not values:
                raise ValueError(f"spec.{name}: must be a non-empty list")
            # aggregate() keys cells by value, so a repeat would merge two cells
            if len(set(values)) < len(values):
                raise ValueError(f"spec.{name}: must not repeat a value, got {values!r}")
        for key, ok, rule in (
                ("scenario", self.scenario in ("A", "B"), "A or B"),
                ("schemes", all(s in SCHEMES for s in self.schemes), f"among {SCHEMES}"),
                ("kappa", all(0.0 <= k <= 1.0 for k in self.kappa), "values in [0, 1]"),
                ("power_dbm", all(0.0 < dbm_to_watts(float(p)) < np.inf for p in self.power_dbm),
                 "values whose power in watts is positive and finite"),
                # the metrics divide by the noise, so one that underflows fails too
                ("noise_dbm", 0.0 < dbm_to_watts(float(self.noise_dbm)) < np.inf,
                 "a value whose power in watts is positive and finite"),
                # numpy integers pass; a float fails, however whole
                ("trials", isinstance(self.trials, Integral) and self.trials >= 1,
                 "an integer >= 1"),
                ("base_seed", isinstance(self.base_seed, Integral) and self.base_seed >= 0,
                 "a non-negative integer"),
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
        return OptimizerConfig(epsilon_outer=self.epsilon_outer, t_max_outer=self.t_max_outer,
                               constraint=constraint, collect_trace=collect_trace)


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
CELL_KEY = ("scheme", "N", "M", "K", "power_dbm", "kappa")
_METRICS = ("sum_rate", "nrmse")
# Each statistic reduces a (cells x trials) array along its rows.
_STATS = {"mean": lambda x: np.mean(x, axis=1), "median": lambda x: np.median(x, axis=1),
          "p10": lambda x: np.percentile(x, 10, axis=1),
          "p90": lambda x: np.percentile(x, 90, axis=1)}
AGGREGATE_COLUMNS = {**{c: get_type_hints(TrialRecord)[c] for c in CELL_KEY}, "trials": int,
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
        if key not in keys:
            raise ValueError(f"spec.{key}: unknown key; have {', '.join(keys)}")
        if key in spec_kwargs or key in channel_kwargs:
            raise ValueError(f"spec.{key}: given twice")
        typ = keys[key]
        if get_origin(typ) is tuple:
            value = tuple(_parse_value(key, tok, get_args(typ)[0])
                          for tok in raw.split(",") if tok.strip())
        else:
            value = _parse_value(key, raw, typ)
        (channel_kwargs if key in channel_keys else spec_kwargs)[key] = value
    try:
        channel = ChannelParams(**channel_kwargs)
    except ValueError as exc:
        raise ValueError(f"spec.{exc}") from None
    return ExperimentSpec(**spec_kwargs, channel=channel)


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        return parse_spec(fh.read())


def desk_spec() -> ExperimentSpec:
    """Shrunk sweep that preserves every propagation constant: N=8, M=2,
    K up to 64, 100 trials. The scaled no-reflector baseline (3x antennas)
    is a separate one-cell spec, see the README."""
    return ExperimentSpec(
        scenario="B", n_bs=(8,), n_users=(2,), n_irs=(16, 36, 64),
        power_dbm=(10.0, 20.0, 30.0), kappa=(1.0,),
        schemes=("vamp_unimodular", "vamp_reactive", "random_phase_irs", "no_irs_mmse"),
        trials=100,
    )


def paper_spec() -> ExperimentSpec:
    """Full-size sweep (N=32, M=8, K=256, 1000 trials): 12,000 trials; the
    README's command-line section states its wall time."""
    return replace(desk_spec(), n_bs=(32,), n_users=(8,), n_irs=(256,), trials=1000)


def _stream(base_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base_seed, *key]))


def fixed_phase_design(ch: ChannelSet, upsilon: np.ndarray, power: float,
                       noise_var: float) -> BeamformingSolution:
    """The closed-form precoder at given reflection coefficients upsilon. All
    zeros leave exactly the direct link: the reflector term adds signed zeros."""
    sol = mmse_precoder(effective_channel(ch, upsilon), power, noise_var)
    return BeamformingSolution(upsilon, sol.F, sol.alpha, 0, True, [], VampDiagnostics())


# scheme -> design(spec, ch_known, power, noise_var, rng). The position of a
# scheme seeds its optimizer stream, so the order is fixed. The designs look
# joint_optimize up when they run, not when the table is built, so a
# rebinding of that module attribute reaches every call.
_DESIGNS = {
    "vamp_unimodular": lambda spec, ch, p, nv, rng: joint_optimize(
        ch, p, nv, spec.optimizer_config("unimodular"), rng),
    "vamp_reactive": lambda spec, ch, p, nv, rng: joint_optimize(
        ch, p, nv, spec.optimizer_config("reactive"), rng),
    "random_phase_irs": lambda spec, ch, p, nv, rng: fixed_phase_design(
        ch, UNIMODULAR.initial_point(ch.dims[2], rng), p, nv),
    "no_irs_mmse": lambda spec, ch, p, nv, rng: fixed_phase_design(
        ch, np.zeros(ch.dims[2], dtype=complex), p, nv),
    "grid_oracle_tiny": lambda spec, ch, p, nv, rng: fixed_phase_design(
        ch, grid_phase_search(ch, p, nv)[0], p, nv),
}
SCHEMES = tuple(_DESIGNS)


def run_trial(spec: ExperimentSpec, scheme: str, ch: ChannelSet, ch_known: ChannelSet,
              power_dbm: float, kappa: float, dims_idx: tuple, trial: int) -> TrialRecord:
    """One seeded trial of one scheme in one sweep cell.

    The scheme designs on ch_known (the estimated channels, or ch itself when
    kappa = 1); sum-rate and NRMSE are evaluated on the true channels ch.
    dims_idx, the cell's indices into n_bs, n_users and n_irs, seeds the
    optimizer stream with the scheme and the trial.
    """
    i_n, i_m, i_k = dims_idx
    n, m, k = ch.dims
    power = dbm_to_watts(power_dbm)
    noise_var = dbm_to_watts(spec.noise_dbm)
    scheme_id = SCHEMES.index(scheme)
    opt_rng = _stream(spec.base_seed, 17, i_n, i_m, i_k, scheme_id, trial)

    start = time.perf_counter()
    sol = _DESIGNS[scheme](spec, ch_known, power, noise_var, opt_rng)
    elapsed_ms = (time.perf_counter() - start) * 1e3

    rate = sum_rate(ch, sol.upsilon, sol.F, noise_var)
    err = nrmse(sol.alpha, sol.upsilon, sol.F, ch, noise_var)
    return TrialRecord(scheme, trial, n, m, k, power_dbm, kappa,
                       rate, err, sol.iterations,
                       elapsed_ms if spec.record_timing else 0.0)


def run_sweep(spec: ExperimentSpec, progress=None):
    """Run every (cell, scheme, trial) task; returns (records, aggregates).

    Each true channel is drawn once per (dims, trial) and, when kappa < 1,
    perturbed once per (kappa, trial); every power and scheme then runs on
    it. Records come back in the canonical (cell, scheme, trial) order
    whatever the run order; `progress` is called with each record as it
    completes, in run order.
    """
    records = {}
    for (i_n, n), (i_m, m), (i_k, k) in product(
            enumerate(spec.n_bs), enumerate(spec.n_users), enumerate(spec.n_irs)):
        dims = SystemDims(n, m, k)
        for trial in range(spec.trials):
            ch = sample_channel_set(_stream(spec.base_seed, 11, i_n, i_m, i_k, trial),
                                    dims, spec.channel, spec.scenario)
            for i_q, kappa in enumerate(spec.kappa):
                known = perturb_csi(ch, kappa, _stream(
                    spec.base_seed, 13, i_n, i_m, i_k, i_q, trial)) if kappa < 1.0 else ch
                for (i_p, power_dbm), (i_s, scheme) in product(
                        enumerate(spec.power_dbm), enumerate(spec.schemes)):
                    rec = run_trial(spec, scheme, ch, known, power_dbm, kappa,
                                    (i_n, i_m, i_k), trial)
                    records[i_n, i_m, i_k, i_p, i_q, i_s, trial] = rec
                    if progress is not None:
                        progress(rec)
    records = [records[key] for key in sorted(records)]
    return records, aggregate(records)


def aggregate(records: list) -> list[dict]:
    """Per-cell mean/median/p10/p90 of sum-rate and fit error, one row per cell
    in cell-key order, with the columns and types of AGGREGATE_COLUMNS.

    The cells with the same trial count are stacked into one (cells x trials)
    array per metric, and each statistic is one call along its rows: that
    gives each cell the bits of the same call on that cell alone. Cells of
    different sizes, as a hand-built record list may hold, go in separate
    stacks."""
    cells: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        cells.setdefault(tuple(getattr(rec, c) for c in CELL_KEY), []).append(rec)
    by_size: dict[int, list[tuple]] = {}
    for key in cells:
        by_size.setdefault(len(cells[key]), []).append(key)
    values = {key: [*key, len(cells[key])] for key in cells}
    for keys in by_size.values():
        for metric in _METRICS:
            x = np.array([[getattr(r, metric) for r in cells[key]] for key in keys])
            for stat in _STATS.values():
                for key, v in zip(keys, stat(x)):
                    values[key].append(v)
    return [{c: typ(v) for (c, typ), v in zip(AGGREGATE_COLUMNS.items(), values[key])}
            for key in sorted(cells)]


def write_csv(path, columns: list[str], rows) -> None:
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
    write_csv(path, columns, ([getattr(r, c) for c in columns] for r in records))


def emit_aggregate_csv(aggregates: list[dict], path) -> None:
    if not aggregates:
        raise ValueError("emit_aggregate_csv: no aggregates")
    columns = list(AGGREGATE_COLUMNS)
    write_csv(path, columns, ([row[c] for c in columns] for row in aggregates))


def load_aggregate_csv(path) -> list[dict]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(AGGREGATE_COLUMNS):
            raise ValueError(f"{path}: header is not {','.join(AGGREGATE_COLUMNS)}")
        rows = [line.strip().split(",") for line in fh]
    out = []
    for lineno, values in enumerate(rows, start=2):
        if len(values) != len(AGGREGATE_COLUMNS):
            raise ValueError(f"{path}:{lineno}: {len(values)} fields, the header has "
                             f"{len(AGGREGATE_COLUMNS)}")
        row = {}
        for (c, typ), v in zip(AGGREGATE_COLUMNS.items(), values):
            try:
                row[c] = typ(v)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: column {c}: cannot parse {v!r} as "
                                 f"{typ.__name__}") from None
        out.append(row)
    return out
