import re
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from irsbeam.charts import _ticks, emit_chart, render_chart
from irsbeam.channel import (ChannelParams, SystemDims, complex_normal, perturb_csi,
                             sample_channel_set)
from irsbeam.harness import (AGGREGATE_COLUMNS, CSV_HEADER, ExperimentSpec, TrialRecord,
                             aggregate, dbm_to_watts, desk_spec, emit_aggregate_csv, emit_csv,
                             load_aggregate_csv, paper_spec, parse_spec,
                             run_sweep, run_trial, spec_keys)

GOLDEN = Path(__file__).resolve().parent / "golden"


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(scenario="B", n_bs=[4], n_users=[1], n_irs=[4],
                power_dbm=[30.0], kappa=[1.0],
                schemes=["vamp_unimodular", "random_phase_irs", "no_irs_mmse"],
                trials=3, base_seed=5, record_timing=False)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_dbm_conversion():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(-100.0) == pytest.approx(1e-13)
    assert dbm_to_watts(4000.0) == np.inf and dbm_to_watts(-4000.0) == 0.0


def test_parse_spec_full():
    text = """
    # sweep description
    scenario = B
    n_bs = 8
    n_users = 2
    n_irs = 16, 36, 64
    power_dbm = 10, 20, 30
    kappa = 0.85, 1.0
    schemes = vamp_unimodular, random_phase_irs
    trials = 7
    base_seed = 42
    noise_dbm = -100
    t_max_outer = 50
    epsilon_outer = 1e-4
    c0 = 1e-3
    eta_direct = 3.7
    q_irs = 10
    user_min = 10
    user_max = 50
    record_timing = false
    """
    spec = parse_spec(text)
    assert spec.n_irs == (16, 36, 64)
    assert spec.kappa == (0.85, 1.0)
    assert spec.trials == 7
    assert spec.base_seed == 42
    assert spec.t_max_outer == 50
    assert spec.epsilon_outer == 1e-4
    assert spec.channel.c0 == 1e-3
    assert (spec.channel.user_min, spec.channel.user_max) == (10.0, 50.0)
    assert spec.record_timing is False


def test_parse_spec_errors_name_the_field():
    with pytest.raises(ValueError, match="spec.bogus"):
        parse_spec("bogus = 3")
    with pytest.raises(ValueError, match="spec.trials"):
        parse_spec("trials = x")
    with pytest.raises(ValueError, match="spec.kappa"):
        parse_spec("kappa = 1.5")
    with pytest.raises(ValueError, match="spec.schemes"):
        parse_spec("schemes = warp_drive")
    with pytest.raises(ValueError, match="line 1"):
        parse_spec("no equals sign here")
    with pytest.raises(ValueError, match="spec.user_range.*user_min.*user_max"):
        parse_spec("user_range = 20")
    with pytest.raises(ValueError, match="spec.user_min"):
        parse_spec("user_min = 0")
    with pytest.raises(ValueError, match="spec.user_max"):
        parse_spec("user_min = 30\nuser_max = 20")
    with pytest.raises(ValueError, match="spec.d_irs"):
        parse_spec("d_irs = -5")
    for key in ("q_irs", "q_direct", "q_irs_user"):
        with pytest.raises(ValueError, match=f"spec.{key}"):
            parse_spec(f"{key} = 0")
    for line, key in (("c0 = 0", "spec.c0"), ("c0 = nan", "spec.c0"),
                      ("c0 = inf", "spec.c0"), ("c0_db = -30", "spec.c0_db: unknown key"),
                      ("d0 = 0", "spec.d0"), ("d0 = nan", "spec.d0"), ("d0 = inf", "spec.d0"),
                      ("eta_irs = -2", "spec.eta_irs"), ("eta_direct = -1", "spec.eta_direct"),
                      ("eta_irs = nan", "spec.eta_irs"), ("eta_irs = inf", "spec.eta_irs"),
                      ("spacing = -1", "spec.spacing"), ("spacing = 0", "spec.spacing"),
                      ("spacing = inf", "spec.spacing"), ("d_irs = inf", "spec.d_irs"),
                      ("los_margin_db = nan", "spec.los_margin_db"),
                      ("los_margin_db = inf", "spec.los_margin_db"),
                      ("epsilon_outer = nan", "spec.epsilon_outer"),
                      ("t_max_outer = 0", "spec.t_max_outer"),
                      ("gamma_w = 1", "spec.gamma_w: unknown key"),
                      ("rho = 0.9", "spec.rho: unknown key"),
                      ("gamma_0 = 0.1", "spec.gamma_0: unknown key"),
                      ("carryover = sometimes", "spec.carryover: unknown key"),
                      ("carryover = restart", "spec.carryover: unknown key"),
                      ("inner_iters = 1", "spec.inner_iters: unknown key"),
                      ("n_irs = 16, 16", "spec.n_irs"), ("n_bs = 8, 8", "spec.n_bs"),
                      ("n_users = 2, 2", "spec.n_users"), ("power_dbm = 30, 30", "spec.power_dbm"),
                      ("power_dbm = 30, 30.0", "spec.power_dbm"), ("kappa = 1, 1.0", "spec.kappa"),
                      ("schemes = random_phase_irs, random_phase_irs", "spec.schemes"),
                      ("power_dbm = 10, nan", "spec.power_dbm"),
                      ("power_dbm = inf", "spec.power_dbm"),
                      ("noise_dbm = nan", "spec.noise_dbm"),
                      ("n_bs = 4\nn_users = 4", "spec.n_bs/n_users/n_irs"),
                      ("n_users = 2\nn_irs = 2", "spec.n_bs/n_users/n_irs"),
                      ("schemes = grid_oracle_tiny\nn_irs = 2, 4", "spec.n_irs"),
                      ("trials = 5\ntrials = 7", "spec.trials: given twice"),
                      ("n_irs = 16\nn_irs = 36", "spec.n_irs: given twice"),
                      ("d_irs = 400\nd_irs = 400", "spec.d_irs: given twice"),
                      ("record_timing = maybe",
                       "spec.record_timing: expected a boolean, got 'maybe'")):
        with pytest.raises(ValueError, match=key):
            parse_spec(line)


def test_readme_spec_block_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Spec file format", 1)[1].split("```", 2)[1]
    parse_spec(block)
    shown = {line.split("=", 1)[0].strip() for line in block.splitlines()
             if "=" in line.split("#", 1)[0]}
    assert [key for key in spec_keys() if key not in shown] == []


def test_presets_validate():
    # building a spec checks it
    assert desk_spec().n_bs == (8,)
    assert paper_spec().n_irs == (256,)


def test_run_sweep_deterministic_csv(tmp_path):
    spec = tiny_spec()
    rec1, _ = run_sweep(spec)
    rec2, _ = run_sweep(spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rec1, p1)
    emit_csv(rec2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 3  # schemes x trials


def test_no_irs_scheme_ignores_reflector_path():
    # identical direct links, different reflector links: no_irs records match
    spec1 = tiny_spec(schemes=["no_irs_mmse"], base_seed=9)
    rec1, _ = run_sweep(spec1)
    # same channel stream, different scheme list order must not matter
    spec2 = tiny_spec(schemes=["no_irs_mmse", "random_phase_irs"], base_seed=9)
    rec2, _ = run_sweep(spec2)
    no_irs = [r for r in rec2 if r.scheme == "no_irs_mmse"]
    for a, b in zip(rec1, no_irs):
        assert a.sum_rate == b.sum_rate
        assert a.nrmse == b.nrmse


def test_no_irs_trial_ignores_reflector_links():
    # all-zero reflection coefficients leave the direct link to the bit: new
    # reflector links, known and true, must not move any field of the record
    spec = tiny_spec(n_bs=[6], n_users=[2], n_irs=[16])
    ch = sample_channel_set(np.random.default_rng(3), SystemDims(6, 2, 16), spec.channel)
    rng = np.random.default_rng(4)
    other = replace(ch, H_bs=complex_normal(rng, 16, 6), H_su=complex_normal(rng, 16, 2))
    for kappa in (1.0, 0.9):
        known = perturb_csi(ch, kappa, np.random.default_rng(5))
        known_other = replace(known, H_bs=other.H_bs, H_su=other.H_su)
        want = run_trial(spec, "no_irs_mmse", ch, known, 30.0, kappa, (0, 0, 0), 1)
        got = run_trial(spec, "no_irs_mmse", other, known_other, 30.0, kappa, (0, 0, 0), 1)
        assert got == want


def test_grid_oracle_scheme_runs_and_dominates(tmp_path):
    spec = tiny_spec(n_bs=[3], n_irs=[2],
                     schemes=["grid_oracle_tiny", "vamp_unimodular"], trials=4)
    records, aggs = run_sweep(spec)
    grid = {r.seed: r for r in records if r.scheme == "grid_oracle_tiny"}
    vamp = {r.seed: r for r in records if r.scheme == "vamp_unimodular"}
    for seed, g in grid.items():
        # the exhaustive search minimizes fit error on the same channel
        assert g.nrmse <= vamp[seed].nrmse * 1.05 + 1e-9


def test_kappa_pairs_channels_across_cells():
    spec = tiny_spec(kappa=[0.9, 1.0], schemes=["random_phase_irs"])
    records, _ = run_sweep(spec)
    perfect = sorted((r for r in records if r.kappa == 1.0), key=lambda r: r.seed)
    noisy = sorted((r for r in records if r.kappa == 0.9), key=lambda r: r.seed)
    # same true channel, same phases: only the precoder differs
    for a, b in zip(noisy, perfect):
        assert a.sum_rate != b.sum_rate
        assert a.sum_rate > 0


def test_emit_csv_empty_errors(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "x.csv")
    with pytest.raises(ValueError):
        emit_aggregate_csv([], tmp_path / "y.csv")


def test_single_record_csv(tmp_path):
    spec = tiny_spec(schemes=["random_phase_irs"], trials=1)
    records, _ = run_sweep(spec)
    path = tmp_path / "one.csv"
    emit_csv(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("random_phase_irs,0,4,1,4,")


def test_aggregate_stats_and_roundtrip(tmp_path):
    spec = tiny_spec(trials=6)
    records, aggs = run_sweep(spec)
    for row in aggs:
        assert row["trials"] == 6
        assert row["sum_rate_p10"] <= row["sum_rate_median"] <= row["sum_rate_p90"]
    expected = {"scheme": str, "N": int, "M": int, "K": int, "trials": int}
    for row in aggs:
        assert {k: type(v) for k, v in row.items()} == {
            k: expected.get(k, float) for k in AGGREGATE_COLUMNS}
    path = tmp_path / "agg.csv"
    emit_aggregate_csv(aggs, path)
    lines = path.read_text().splitlines()
    back = load_aggregate_csv(path)
    assert back == aggs
    # equality alone lets 6 == 6.0 pass; the types must survive the round trip
    assert [[type(v) for v in row.values()] for row in back] == \
        [[type(v) for v in row.values()] for row in aggs]
    # the columns are parsed by position, so any other header is refused
    path.write_text(path.read_text().replace("N,M", "M,N", 1))
    with pytest.raises(ValueError, match="header"):
        load_aggregate_csv(path)
    # a row with another field count, a blank line included, is refused by line
    header, row = lines[:2]
    for body, lineno, count in (("vamp_unimodular,8,2\n\n", 2, 3), ("\n", 2, 1),
                                (row + "\n\n", 3, 1),
                                (row + ",1.0\n", 2, len(AGGREGATE_COLUMNS) + 1)):
        path.write_text(header + "\n" + body)
        with pytest.raises(ValueError, match=f"agg.csv:{lineno}: {count} fields"):
            load_aggregate_csv(path)
    # a value that does not parse is refused by line and column
    fields = row.split(",")
    for column, bad, typ in (("N", "x", "int"), ("trials", "6.0", "int"),
                             ("sum_rate_p90", "fast", "float")):
        broken = list(fields)
        broken[list(AGGREGATE_COLUMNS).index(column)] = bad
        path.write_text("\n".join([header, row, ",".join(broken)]) + "\n")
        with pytest.raises(ValueError,
                           match=f"agg.csv:3: column {column}: cannot parse '{bad}' as {typ}"):
            load_aggregate_csv(path)


def test_render_chart_structure(tmp_path):
    spec = tiny_spec(n_irs=[4, 9], trials=4)
    _, aggs = run_sweep(spec)
    svg = render_chart(aggs, "K", title="demo")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3  # one median line per scheme
    assert svg.count("<polygon") == 3   # one band per scheme
    out = tmp_path / "chart.svg"
    emit_chart(aggs, "K", out)
    assert out.read_text() == svg.replace("demo", "")  # title differs only
    with pytest.raises(ValueError):
        render_chart([], "K")
    with pytest.raises(ValueError, match="^render_chart: aggregate rows lack column "
                                         "'sum_rate_p90'$"):
        render_chart([{k: v for k, v in row.items() if k != "sum_rate_p90"} for row in aggs],
                     "K")
    # one x value: the axis is widened by half a unit on each side, which
    # centres every point; an empty tick span is widened to one unit
    one = render_chart([row for row in aggs if row["K"] == 4], "K")
    assert one.count('<circle cx="275.0"') == 3 and ">4</text>" in one
    assert _ticks(2.0, 2.0) == [2.0, 2.2, 2.4, 2.6, 2.8, 3.0]


def test_render_chart_draws_one_series_per_cell():
    # a sweep over K and two powers: a chart along either draws one line per
    # scheme and value of the other, each line's x values strictly increase,
    # and the legend names the power or K of each line
    spec = tiny_spec(n_irs=[4, 9, 16], power_dbm=[10.0, 30.0], trials=2)
    _, aggs = run_sweep(spec)
    for x_key, other, values in (("K", "power_dbm", (10, 30)), ("power_dbm", "K", (4, 9, 16))):
        svg = render_chart(aggs, x_key)
        lines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(lines) == len(spec.schemes) * len(values)
        for line in lines:
            xs = [float(p.split(",")[0]) for p in line.split()]
            assert len(xs) == len(aggs) // len(lines) and all(a < b for a, b in zip(xs, xs[1:]))
        for scheme, value in product(spec.schemes, values):
            assert f">{scheme}, {other}={value}</text>" in svg


@pytest.mark.parametrize("value", [2.0**53, -(2.0**60), 1e300])
def test_render_chart_widens_a_single_value_past_rounding(value):
    # at this magnitude x +- 0.5, the 5% pad and lo + 1 all round back to
    # the value itself; the widening must still leave a span to draw on
    row = {"scheme": "vamp_unimodular", "K": value, "sum_rate_median": value,
           "sum_rate_p10": value, "sum_rate_p90": value}
    svg = render_chart([row], "K")
    assert '<circle cx="275.0" cy="202.5"' in svg   # the centre of the plot
    assert "nan" not in svg and "inf" not in svg
    ticks = _ticks(value, value)
    assert ticks and ticks[0] < ticks[-1]


@pytest.mark.parametrize("x, p10, median, p90", [
    (2.0**53, 2.0**53, 2.0**53, 2.0**53),
    (16.0, 1000.0, 1000.0001, 1000.0002)])
def test_render_chart_labels_adjacent_ticks_apart(x, p10, median, p90):
    # six significant digits print ticks closer than that alike; each axis
    # takes the digits that tell its adjacent ticks apart
    row = {"scheme": "vamp_unimodular", "K": x, "sum_rate_median": median,
           "sum_rate_p10": p10, "sum_rate_p90": p90}
    svg = render_chart([row], "K")
    for anchor in ("middle", "end"):   # x and y tick labels
        labels = re.findall(f'text-anchor="{anchor}" font-family="sans-serif" '
                            f'font-size="11">([^<]*)</text>', svg)
        assert len(labels) >= 3
        assert all(a != b for a, b in zip(labels, labels[1:])), labels
        assert all(float(a) < float(b) for a, b in zip(labels, labels[1:])), labels


def test_timing_recorded_when_enabled():
    spec = tiny_spec(record_timing=True, schemes=["vamp_unimodular"], trials=1)
    records, _ = run_sweep(spec)
    assert records[0].ms > 0.0


def test_spec_validation_paths():
    with pytest.raises(ValueError, match="spec.n_irs"):
        ExperimentSpec(n_irs=[])
    with pytest.raises(ValueError, match="spec.trials"):
        ExperimentSpec(trials=0)
    with pytest.raises(ValueError, match="spec.scenario"):
        ExperimentSpec(scenario="C")
    # a copy with changes is checked as well
    with pytest.raises(ValueError, match="spec.base_seed"):
        replace(desk_spec(), base_seed=-1)
    with pytest.raises(ValueError, match="spec.epsilon_outer"):
        replace(desk_spec(), epsilon_outer=float("nan"))
    # an integer key refuses a float, however whole, when the spec is built,
    # not deep in the run
    for key, bad in (("trials", 2.5), ("trials", 3.0), ("base_seed", 1.5), ("t_max_outer", 2.5)):
        with pytest.raises(ValueError, match=f"^spec.{key}: must be .*integer"):
            replace(desk_spec(), **{key: bad})
    for key, bad, dim in (("n_bs", (8.5,), "N"), ("n_users", (2.0,), "M"),
                          ("n_irs", (16, 36.0), "K")):
        with pytest.raises(ValueError, match="^spec.n_bs/n_users/n_irs: SystemDims: need an "
                                             f"integer {dim}"):
            replace(desk_spec(), **{key: bad})
    for key in ("q_irs", "q_direct", "q_irs_user"):
        with pytest.raises(ValueError, match=f"^{key}: must be an integer >= 1"):
            ChannelParams(**{key: 1.5})
    # a geometry whose squared distances overflow is refused when the
    # propagation constants are built, not deep in channel synthesis
    for text, key in (("d_irs = 1e200", "d_irs"), ("user_min = 1e199\nuser_max = 1e200",
                                                  "user_max")):
        with pytest.raises(ValueError, match=rf"^spec.{key}: must be .*finite"):
            parse_spec(text)
    # a power or a noise that overflows or underflows in watts: the metrics
    # divide by the noise, so a noise of 0 W is refused like a power of 0 W
    for key, bad in (("power_dbm", (4000.0,)), ("power_dbm", (30.0, -4000.0)),
                     ("power_dbm", (np.float64(4000.0),)), ("noise_dbm", 4000.0),
                     ("noise_dbm", -4000.0)):
        with pytest.raises(ValueError, match=f"^spec.{key}: must be .*in watts"):
            replace(desk_spec(), **{key: bad})


def test_spec_takes_numpy_integers():
    i = np.int64
    spec = tiny_spec(n_bs=[i(4)], n_users=[np.int32(1)], n_irs=[i(4)], trials=i(2),
                     base_seed=i(5), t_max_outer=i(20), channel=ChannelParams(q_irs=i(3)))
    records, _ = run_sweep(spec)
    assert records == run_sweep(tiny_spec(trials=2, t_max_outer=20,
                                          channel=ChannelParams(q_irs=3)))[0]


def test_spec_refuses_assignment():
    # a spec is checked once, when built, so it cannot change afterwards
    spec = desk_spec()
    with pytest.raises(FrozenInstanceError):
        spec.trials = 0
    assert spec.trials == 100


def test_spec_swept_fields_are_tuples():
    # a list given to a built spec could be appended to after its checks,
    # and a repeated value would merge two cells into one aggregate row
    spec = ExperimentSpec(n_irs=[16, 36], power_dbm=[10.0], kappa=[0.9, 1.0])
    for name in ("n_bs", "n_users", "n_irs", "power_dbm", "kappa", "schemes"):
        assert type(getattr(spec, name)) is tuple, name
    assert spec.n_irs == (16, 36)
    with pytest.raises(AttributeError):
        spec.n_irs.append(16)
    assert type(replace(spec, n_irs=[64]).n_irs) is tuple
    assert type(parse_spec("n_irs = 16, 36").n_irs) is tuple


def test_aggregate_matches_per_cell_scalar_statistics():
    # the stacked statistics give every cell the bits of the scalar calls on
    # that cell alone, also when the cells of a hand-built list differ in size
    rng = np.random.default_rng(3)
    records = []
    for k, size in zip((4, 9, 16, 25, 36, 49), (1, 2, 5, 5, 8, 101)):
        for scheme in ("vamp_unimodular", "random_phase_irs"):
            for trial in range(size):
                records.append(TrialRecord(scheme, trial, 8, 2, k, 30.0, 1.0,
                                           float(rng.lognormal(2.0, 1.0)),
                                           float(rng.random()), 0, 0.0))
    rng.shuffle(records)
    rows = aggregate(records)
    assert [(r["scheme"], r["K"], r["trials"]) for r in rows] == sorted(
        {(rec.scheme, rec.K, sum(1 for o in records if (o.scheme, o.K) == (rec.scheme, rec.K)))
         for rec in records})
    scalar = {"mean": np.mean, "median": np.median,
              "p10": lambda x: np.percentile(x, 10), "p90": lambda x: np.percentile(x, 90)}
    for row in rows:
        cell = [rec for rec in records if (rec.scheme, rec.K) == (row["scheme"], row["K"])]
        for metric in ("sum_rate", "nrmse"):
            x = np.array([getattr(rec, metric) for rec in cell])
            for name, stat in scalar.items():
                assert row[f"{metric}_{name}"].hex() == float(stat(x)).hex(), (row, metric, name)


def _relative_gap(a: str, b: str) -> float:
    """Largest relative difference of the numeric fields two CSV lines share."""
    gap = 0.0
    for x, y in zip(a.split(","), b.split(",")):
        try:
            x, y = float(x), float(y)
        except ValueError:
            continue
        if x != y:
            gap = max(gap, abs(x - y) / max(abs(x), abs(y)))
    return gap


def assert_matches_golden(path: Path, name: str) -> None:
    """Byte equality with tests/golden/<name>. A mismatch reports the first
    differing line and the largest relative difference of its numeric
    fields, which tells last-bit rounding (about 1e-16) from a behaviour
    change."""
    got, want = path.read_bytes(), (GOLDEN / name).read_bytes()
    if got == want:
        return
    got_lines = got.decode().splitlines(keepends=True)
    want_lines = want.decode().splitlines(keepends=True)
    for lineno, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            pytest.fail(f"{name}:{lineno} differs (largest relative difference "
                        f"{_relative_gap(a, b):.3g}):\n  got  {a!r}\n  want {b!r}")
    pytest.fail(f"{name}: {len(got_lines)} lines, the golden file has {len(want_lines)}")


def test_golden_diff_report_names_line_and_gap(tmp_path):
    golden = (GOLDEN / "tiny_sweep.csv").read_text().splitlines()
    header, first = golden[:2]
    fields = first.split(",")
    i = CSV_HEADER.split(",").index("sum_rate")
    fields[i] = repr(float(fields[i]) * (1 + 1e-9))
    path = tmp_path / "x.csv"
    path.write_text("\n".join([header, ",".join(fields), *golden[2:]]) + "\n")
    with pytest.raises(pytest.fail.Exception,
                       match=r"tiny_sweep.csv:2 differs \(largest relative difference 1e-09\)"):
        assert_matches_golden(path, "tiny_sweep.csv")
    path.write_text("\n".join(golden[:-1]) + "\n")
    with pytest.raises(pytest.fail.Exception, match=f"{len(golden) - 1} lines"):
        assert_matches_golden(path, "tiny_sweep.csv")


def test_golden_csv_regression(tmp_path):
    # frozen on first run; if a different BLAS/LAPACK build shifts last-bit
    # float behavior, regenerate by rerunning this spec and overwriting
    # tests/golden/tiny_sweep.csv
    spec = ExperimentSpec(scenario="B", n_bs=[4], n_users=[1], n_irs=[4],
                          power_dbm=[30.0], kappa=[1.0],
                          schemes=["vamp_unimodular", "random_phase_irs"],
                          trials=3, base_seed=12345, record_timing=False)
    records, _ = run_sweep(spec)
    path = tmp_path / "tiny_sweep.csv"
    emit_csv(records, path)
    assert_matches_golden(path, "tiny_sweep.csv")


def reuse_spec() -> ExperimentSpec:
    """Two dims, two powers, two kappa values and four schemes: every trial
    channel is shared by 16 tasks, 8 of them on its perturbed copy."""
    return ExperimentSpec(scenario="B", n_bs=[4], n_users=[1], n_irs=[4, 9],
                          power_dbm=[20.0, 30.0], kappa=[0.9, 1.0],
                          schemes=["vamp_unimodular", "vamp_reactive",
                                   "random_phase_irs", "no_irs_mmse"],
                          trials=2, base_seed=7, record_timing=False)


def test_run_sweep_draws_each_channel_once(monkeypatch):
    import irsbeam.harness as harness
    draws, perturbs = Counter(), Counter()
    sample, perturb = harness.sample_channel_set, harness.perturb_csi

    def counted_sample(rng, dims, *args, **kwargs):
        draws[dims.K] += 1
        return sample(rng, dims, *args, **kwargs)

    def counted_perturb(ch, kappa, *args, **kwargs):
        perturbs[ch.dims[2], kappa] += 1
        return perturb(ch, kappa, *args, **kwargs)

    monkeypatch.setattr(harness, "sample_channel_set", counted_sample)
    monkeypatch.setattr(harness, "perturb_csi", counted_perturb)
    records, _ = run_sweep(reuse_spec())
    assert len(records) == 2 * 2 * 2 * 4 * 2
    # one draw per (dims, trial); one perturbation per (dims, kappa < 1, trial)
    assert draws == {4: 2, 9: 2}
    assert perturbs == {(4, 0.9): 2, (9, 0.9): 2}


def test_golden_reuse_sweep_csv(tmp_path):
    # pins record order and values across powers, kappa values and schemes
    # that share one channel; same regeneration rule as tiny_sweep.csv
    records, _ = run_sweep(reuse_spec())
    path = tmp_path / "reuse_sweep.csv"
    emit_csv(records, path)
    assert_matches_golden(path, "reuse_sweep.csv")
