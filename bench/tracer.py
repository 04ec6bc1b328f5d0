"""Outside-in instrumentation of the irsbeam package.

Nothing here edits the package. Each instrumented function is replaced, for
the duration of a `with` block, at every irsbeam module that binds it:
`from .vamp import prepare_system` copies the binding into the importing
module, so patching only the defining module would miss those calls.

Two instruments share that mechanism:

- `SolveProbe` wraps `joint_optimize` alone. It checks every returned
  solution and counts iterations, convergence and clamps. It costs tens of
  microseconds per solve, so it stays on in the end-to-end runs too.
- `Tracer` wraps every layer function listed in `LAYERS` and records one
  span per call: name, start, end and the index of the enclosing span. Spans
  stay in memory; `summary` folds them into per-layer counts and self times
  and `save` writes them out.

A function that no longer exists under its listed name is reported as absent
instead of failing the run, so the benchmark keeps working when a later
change renames or removes a layer function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute). "projectors.g" and "projectors.g_prime" are
# attributes of the projector objects, not module functions; see _projector_targets.
LAYERS = (
    ("channel.sample_channel_set", "channel", "sample_channel_set"),
    ("channel.perturb_csi", "channel", "perturb_csi"),
    ("vamp.prepare_system", "vamp", "prepare_system"),
    ("vamp.lmmse_extrinsic", "vamp", "lmmse_extrinsic"),
    ("projectors.g", "projectors", "g"),
    ("projectors.g_prime", "projectors", "g_prime"),
    ("precoding.mmse_precoder", "precoding", "mmse_precoder"),
    ("precoding.effective_channel", "precoding", "effective_channel"),
    ("metrics.fit_error", "metrics", "fit_error"),
    ("metrics.sum_rate", "metrics", "sum_rate"),
    ("metrics.nrmse", "metrics", "nrmse"),
    ("altopt.joint_optimize", "altopt", "joint_optimize"),
    ("harness.run_trial", "harness", "run_trial"),
    ("harness.aggregate", "harness", "aggregate"),
)
SOLVER = ("altopt", "joint_optimize")
POWER_RTOL = 1e-9
MODULUS_TOL = 1e-12


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "irsbeam" or name.startswith("irsbeam."))]


def _rebind(original, replacement) -> list:
    """Point every irsbeam module attribute bound to `original` at
    `replacement`; returns what is needed to undo it."""
    undo = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _projector_targets(attr: str):
    """(projector object, its `attr` callable) for each projector the
    projectors module defines."""
    module = sys.modules.get("irsbeam.projectors")
    cls = getattr(module, "Projector", None)
    if module is None or not isinstance(cls, type):
        return []
    return [(obj, getattr(obj, attr)) for obj in vars(module).values()
            if isinstance(obj, cls) and callable(getattr(obj, attr, None))]


@contextmanager
def _installed(wrappers: dict):
    """Install `wrappers` ({(module, attr): make_wrapper(fn)}) and undo on exit.

    Yields the set of (module, attr) keys that were found.
    """
    undo: list = []
    found = set()
    try:
        for (mod, attr), make in wrappers.items():
            if mod == "projectors" and attr in ("g", "g_prime"):
                targets = _projector_targets(attr)
                for obj, fn in targets:
                    object.__setattr__(obj, attr, make(fn))
                    undo.append((obj, attr, fn))
                if targets:
                    found.add((mod, attr))
                continue
            module = sys.modules.get(f"irsbeam.{mod}")
            fn = getattr(module, attr, None)
            if callable(fn):
                undo.extend(_rebind(fn, make(fn)))
                found.add((mod, attr))
        yield found
    finally:
        for holder, attr, fn in reversed(undo):
            object.__setattr__(holder, attr, fn)


class SolveProbe:
    """Wraps `joint_optimize`: checks each solution as it returns and keeps
    only counts, so its memory does not grow with the number of solves.

    A solution passes when F and upsilon are finite, |‖F‖² − P| <= 1e-9·P,
    and every phase lies on the set of its constraint (|υ_k| = 1 for
    unimodular, |υ_k + ½| = ½ for reactive) within 1e-12. The arguments are
    bound by name, so callers may pass them by position or keyword; a
    missing `cfg` means the `OptimizerConfig` default.
    """

    def __init__(self):
        self.solves = self.bad = self.iterations = self.converged = 0
        self.lmmse_clamps = self.projector_clamps = 0

    def _check(self, sol, power, constraint: str) -> bool:
        F, ups = np.asarray(sol.F), np.asarray(sol.upsilon)
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(ups))):
            return False
        if power is not None and abs(float(np.linalg.norm(F) ** 2) - power) > POWER_RTOL * power:
            return False
        if constraint == "unimodular":
            return float(np.max(np.abs(np.abs(ups) - 1.0))) <= MODULUS_TOL
        if constraint == "reactive":
            return float(np.max(np.abs(np.abs(ups + 0.5) - 0.5))) <= MODULUS_TOL
        return True

    def _wrap(self, fn):
        from irsbeam import OptimizerConfig
        signature = inspect.signature(fn)
        default = OptimizerConfig().constraint

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            sol = fn(*args, **kwargs)
            given = signature.bind(*args, **kwargs).arguments
            power = given.get("power")
            cfg = given.get("cfg")
            constraint = cfg.constraint if cfg is not None else default
            self.solves += 1
            self.bad += not self._check(sol, None if power is None else float(power), constraint)
            self.iterations += int(sol.iterations)
            self.converged += bool(sol.converged)
            diag = sol.diagnostics
            self.lmmse_clamps += int(getattr(diag, "lmmse_clamps", 0))
            self.projector_clamps += int(getattr(diag, "projector_clamps", 0))
            return sol
        return probed

    def installed(self):
        return _installed({SOLVER: self._wrap})


class Tracer:
    """Span recorder. Spans are kept as parallel lists to keep the per-call
    cost to a few list appends."""

    def __init__(self):
        self.names: list[str] = [name for name, _, _ in LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.present: set[str] = set()

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        ident = self._ids[name]
        name_id, t0s, t1s, parents, stack = (self.name_id, self.t0, self.t1,
                                             self.parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(ident)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
        return traced

    @contextmanager
    def installed(self):
        wrappers = {(mod, attr): functools.partial(self._wrap, name)
                    for name, mod, attr in LAYERS}
        with _installed(wrappers) as found:
            self.present = {name for name, mod, attr in LAYERS if (mod, attr) in found}
            yield self

    def arrays(self):
        """(name index, start, end, parent index) of every span, as arrays."""
        return (np.asarray(self.name_id, dtype=np.int32), np.asarray(self.t0, dtype=float),
                np.asarray(self.t1, dtype=float), np.asarray(self.parent, dtype=np.int64))

    def summary(self) -> dict:
        """Per layer: calls and self time in ms; plus root-span coverage in s.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap their siblings.
        """
        name_id, t0, t1, parent = self.arrays()
        dur = t1 - t0
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_ms = np.bincount(name_id, weights=self_s, minlength=k) * 1e3
        out = {name: {"calls": int(calls[i]), "self_ms": float(self_ms[i])}
               for i, name in enumerate(self.names)}
        return {"layers": out, "root_s": float(dur[~nested].sum())}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` made, at any depth, inside a call of `ancestor`."""
        name_id, _, _, parent = self.arrays()
        target, anc = self._ids[name], self._ids[ancestor]
        count = 0
        for idx in np.flatnonzero(name_id == target):
            p = parent[idx]
            while p >= 0 and name_id[p] != anc:
                p = parent[p]
            count += p >= 0
        return int(count)

    def save(self, path) -> None:
        name_id, t0, t1, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, t0=t0, t1=t1,
                 parent=parent)
