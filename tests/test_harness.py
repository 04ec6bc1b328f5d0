from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from irsbeam.charts import emit_chart, render_chart
from irsbeam.harness import (AGGREGATE_COLUMNS, CSV_HEADER, ExperimentSpec, aggregate,
                             dbm_to_watts, desk_spec, emit_aggregate_csv, emit_csv,
                             load_aggregate_csv, paper_spec, parse_spec,
                             run_sweep, spec_keys)


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
    rho = 0.8
    epsilon_outer = 1e-4
    c0_db = -30
    eta_direct = 3.7
    q_irs = 10
    user_min = 10
    user_max = 50
    record_timing = false
    """
    spec = parse_spec(text)
    assert spec.n_irs == [16, 36, 64]
    assert spec.kappa == [0.85, 1.0]
    assert spec.trials == 7
    assert spec.base_seed == 42
    assert spec.rho == 0.8
    assert spec.epsilon_outer == 1e-4
    assert spec.channel.c0 == pytest.approx(1e-3)
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
                      ("c0 = inf", "spec.c0"), ("c0_db = nan", "c0_db"),
                      ("d0 = 0", "spec.d0"), ("d0 = nan", "spec.d0"), ("d0 = inf", "spec.d0"),
                      ("eta_irs = -2", "spec.eta_irs"), ("eta_direct = -1", "spec.eta_direct"),
                      ("eta_irs = nan", "spec.eta_irs"), ("eta_irs = inf", "spec.eta_irs"),
                      ("spacing = -1", "spec.spacing"), ("spacing = 0", "spec.spacing"),
                      ("spacing = inf", "spec.spacing"), ("d_irs = inf", "spec.d_irs"),
                      ("los_margin_db = nan", "spec.los_margin_db"),
                      ("los_margin_db = inf", "spec.los_margin_db"),
                      ("epsilon_outer = nan", "spec.epsilon_outer"),
                      ("gamma_w = nan", "spec.gamma_w"), ("gamma_0 = nan", "spec.gamma_0"),
                      ("rho = nan", "spec.rho"), ("t_max_outer = 0", "spec.t_max_outer"),
                      ("carryover = sometimes", "spec.carryover"),
                      ("power_dbm = 10, nan", "spec.power_dbm"),
                      ("power_dbm = inf", "spec.power_dbm"),
                      ("noise_dbm = nan", "spec.noise_dbm"),
                      ("n_bs = 4\nn_users = 4", "spec.n_bs/n_users/n_irs"),
                      ("n_users = 2\nn_irs = 2", "spec.n_bs/n_users/n_irs"),
                      ("schemes = grid_oracle_tiny\nn_irs = 2, 4", "spec.n_irs")):
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
    desk_spec().validate()
    paper_spec().validate()
    assert desk_spec().n_bs == [8]
    assert paper_spec().n_irs == [256]


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
    back = load_aggregate_csv(path)
    assert back == aggs
    # equality alone lets 6 == 6.0 pass; the types must survive the round trip
    assert [[type(v) for v in row.values()] for row in back] == \
        [[type(v) for v in row.values()] for row in aggs]
    # the columns are parsed by position, so any other header is refused
    path.write_text(path.read_text().replace("N,M", "M,N", 1))
    with pytest.raises(ValueError, match="header"):
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


def test_timing_recorded_when_enabled():
    spec = tiny_spec(record_timing=True, schemes=["vamp_unimodular"], trials=1)
    records, _ = run_sweep(spec)
    assert records[0].ms > 0.0


def test_spec_validation_paths():
    with pytest.raises(ValueError, match="spec.n_irs"):
        ExperimentSpec(n_irs=[]).validate()
    with pytest.raises(ValueError, match="spec.trials"):
        ExperimentSpec(trials=0).validate()
    with pytest.raises(ValueError, match="spec.scenario"):
        ExperimentSpec(scenario="C").validate()


def test_golden_csv_regression(tmp_path):
    # frozen on first run; if a different BLAS/LAPACK build shifts last-bit
    # float behavior, regenerate by rerunning this spec and overwriting
    # tests/golden/tiny_sweep.csv
    import os
    spec = ExperimentSpec(scenario="B", n_bs=[4], n_users=[1], n_irs=[4],
                          power_dbm=[30.0], kappa=[1.0],
                          schemes=["vamp_unimodular", "random_phase_irs"],
                          trials=3, base_seed=12345, record_timing=False)
    records, _ = run_sweep(spec)
    path = tmp_path / "tiny_sweep.csv"
    emit_csv(records, path)
    golden = os.path.join(os.path.dirname(__file__), "golden", "tiny_sweep.csv")
    assert path.read_bytes() == open(golden, "rb").read()


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
    import os
    records, _ = run_sweep(reuse_spec())
    path = tmp_path / "reuse_sweep.csv"
    emit_csv(records, path)
    golden = os.path.join(os.path.dirname(__file__), "golden", "reuse_sweep.csv")
    assert path.read_bytes() == open(golden, "rb").read()
