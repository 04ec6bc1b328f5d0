import numpy as np
import pytest

from irsbeam.altopt import joint_optimize
from irsbeam.channel import SystemDims, sample_channel_set
from irsbeam.cli import main
from irsbeam.harness import dbm_to_watts, load_spec
from irsbeam.metrics import nrmse, sum_rate

TINY_SPEC = """
scenario = B
n_bs = 4
n_users = 1
n_irs = 4, 9
power_dbm = 30
kappa = 1.0
schemes = random_phase_irs, no_irs_mmse
trials = 2
base_seed = 3
record_timing = false
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(TINY_SPEC)
    return path


def test_run_writes_outputs(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--spec", str(spec_file), "--out", str(out)])
    assert rc == 0
    assert (out / "trials.csv").exists()
    assert (out / "aggregate.csv").exists()
    assert (out / "sum_rate_vs_K.svg").exists()
    lines = (out / "trials.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # cells x schemes x trials


def test_run_seed_override_changes_results(spec_file, tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    main(["run", "--spec", str(spec_file), "--out", str(out_a), "--seed", "1"])
    main(["run", "--spec", str(spec_file), "--out", str(out_b), "--seed", "2"])
    main(["run", "--spec", str(spec_file), "--out", str(out_c), "--seed", "1"])
    a = (out_a / "trials.csv").read_bytes()
    assert a != (out_b / "trials.csv").read_bytes()
    assert a == (out_c / "trials.csv").read_bytes()


def _assert_rows_are_metrics_scores(spec_file, path, constraint, exclude_direct):
    """Each trace.csv row holds the iteration, the objective and the
    metrics.nrmse and metrics.sum_rate scores of that iteration's design, on
    the channel set the verb solved on; replayed here from the spec."""
    spec = load_spec(spec_file)
    rng = np.random.default_rng(spec.base_seed)
    dims = SystemDims(spec.n_bs[0], spec.n_users[0], spec.n_irs[0])
    ch = sample_channel_set(rng, dims, spec.channel, spec.scenario)
    if exclude_direct:
        ch = ch.without_direct_link()
    noise = dbm_to_watts(spec.noise_dbm)
    sol = joint_optimize(ch, dbm_to_watts(spec.power_dbm[0]), noise,
                         spec.optimizer_config(constraint, collect_trace=True), rng)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [[int(r[0])] + [float(v) for v in r[1:]] for r in rows] == [
        [row.iteration, row.error, nrmse(row.alpha, row.upsilon, row.F, ch, noise),
         sum_rate(ch, row.upsilon, row.F, noise)] for row in sol.trace]


def test_trace_verb(spec_file, tmp_path, capsys):
    out = tmp_path / "tr"
    rc = main(["trace", "--spec", str(spec_file), "--out", str(out),
               "--exclude-direct"])
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,error,nrmse,sum_rate"
    assert len(lines) >= 3
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs[-1] <= errs[0]
    _assert_rows_are_metrics_scores(spec_file, out / "trace.csv", "unimodular", True)


def test_trace_reactive(spec_file, tmp_path):
    out = tmp_path / "tr"
    rc = main(["trace", "--spec", str(spec_file), "--out", str(out),
               "--constraint", "reactive"])
    assert rc == 0
    _assert_rows_are_metrics_scores(spec_file, out / "trace.csv", "reactive", False)


def test_oracle_verb(capsys):
    rc = main(["oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle suite: PASS" in out
    # the reconstruction and the linear pass are checked on the systems
    # prepare_system builds, factored at two and three users alike
    for m in (2, 3):
        assert f"PASS  factored product-form SVD reconstructs ({m} x 7 and 2 x 7)" in out
        assert f"PASS  factored product form matches the explicit one ({m} x 7 and 2 x 7)" in out
    assert "PASS  production linear pass matches dense form" in out
    assert "PASS  factored linear pass matches the explicit product form at M = 4" in out
    assert "FAIL" not in out.replace("oracle suite: PASS", "")


def test_chart_verb(spec_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--spec", str(spec_file), "--out", str(out)])
    rc = main(["chart", "--csv", str(out / "aggregate.csv"),
               "--out", str(tmp_path / "charts"), "--x", "K", "--stat", "nrmse"])
    assert rc == 0
    svg = (tmp_path / "charts" / "nrmse_vs_K.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_preset_loading(tmp_path, monkeypatch):
    # presets parse and validate through the same path as files
    import irsbeam.cli as cli

    class Args:
        spec = None
        preset = "desk"
        seed = 123

    spec = cli._load(Args())
    assert spec.base_seed == 123
    assert spec.n_irs == (16, 36, 64)


@pytest.mark.parametrize("argv", [
    ["oracle", "--spec", "/nonexistent.txt"],
    ["oracle", "--preset", "paper"],
    ["oracle", "--out", "somewhere"],
    ["chart", "--csv", "aggregate.csv", "--spec", "spec.txt"],
    ["chart", "--csv", "aggregate.csv", "--preset", "desk"],
    ["chart", "--csv", "aggregate.csv", "--seed", "1"],
])
def test_verbs_refuse_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "trace", "oracle"])
def test_negative_seed_is_refused_by_name(verb, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--seed", "-1"] + ([] if verb == "oracle" else ["--out", str(tmp_path)]))
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_trace_says_why_it_stopped(spec_file, tmp_path, capsys):
    # the tolerance stop returns the last row; a stall (the paper preset's
    # M = 8 reactive solve at seed 11) and the cap return the row with the
    # lowest objective
    capped = tmp_path / "capped.txt"
    capped.write_text(TINY_SPEC + "t_max_outer = 2\n")
    for argv, stopped in ((["--spec", str(spec_file)], "tolerance"),
                          (["--preset", "paper", "--constraint", "reactive", "--seed", "11"],
                           "stall"),
                          (["--spec", str(capped)], "cap")):
        out = tmp_path / stopped
        assert main(["trace", "--out", str(out)] + argv) == 0
        lines = (out / "trace.csv").read_text().splitlines()[1:]
        errs = [float(line.split(",")[1]) for line in lines]
        returned = len(errs) - 1 if stopped == "tolerance" else int(np.argmin(errs))
        # only the stall returns a row before the last
        assert (returned < len(errs) - 1) == (stopped == "stall")
        assert (f"(converged={stopped == 'tolerance'}; stopped: {stopped}; "
                f"returned row: {returned})") in capsys.readouterr().out
