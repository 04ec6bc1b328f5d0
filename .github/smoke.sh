#!/usr/bin/env bash
# The demos and the four command-line verbs end to end, each with numpy's
# runtime warnings as errors. Run from the repository root; sweeps and traces
# go under $RUNNER_TEMP, which must name a writable directory.
set -euo pipefail
for demo in demos/*.py; do
  echo "== $demo"
  PYTHONPATH=src python -W error::RuntimeWarning "$demo" > /dev/null
done
# the module entry point, the oracle suite and the trace verb end to end
PYTHONPATH=src python -W error::RuntimeWarning -m irsbeam.cli oracle > /dev/null
PYTHONPATH=src python -W error::RuntimeWarning -m irsbeam.cli trace --preset desk --out "$RUNNER_TEMP/trace" > /dev/null
# the paper preset's M = 8 solve, the factored product form end to end
PYTHONPATH=src python -W error::RuntimeWarning -m irsbeam.cli trace --preset paper --out "$RUNNER_TEMP/trace-paper" > /dev/null
# a reactive M = 8 solve that stalls and returns its lowest-objective row
PYTHONPATH=src python -W error::RuntimeWarning -m irsbeam.cli trace --preset paper --constraint reactive --seed 11 --out "$RUNNER_TEMP/trace-stall" | grep "stopped: stall"
# a tiny sweep through the run verb, and its aggregate re-rendered by chart
cat > "$RUNNER_TEMP/tiny.spec" <<'SPEC'
n_bs = 4
n_users = 1
n_irs = 4, 8
power_dbm = 20, 30
schemes = vamp_unimodular, vamp_reactive, random_phase_irs, no_irs_mmse
trials = 2
record_timing = false
SPEC
PYTHONPATH=src python -W error::RuntimeWarning -m irsbeam.cli run --spec "$RUNNER_TEMP/tiny.spec" --out "$RUNNER_TEMP/run" > /dev/null
PYTHONPATH=src python -W error::RuntimeWarning -m irsbeam.cli chart --csv "$RUNNER_TEMP/run/aggregate.csv" --out "$RUNNER_TEMP/chart" > /dev/null
