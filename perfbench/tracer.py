"""Per-layer tracing of qcadc from outside the package.

Inside a traced command process, :func:`install` replaces each layer's
public functions with wrappers that record one span per call: name, start,
end, parent span, span id, whether it returned, and problem-size counts
taken from the arguments or the result.  run.py tags each process's spans
with its run id (workload, seed, pass and command).  The package imports
many functions by name (``from scipy.linalg import expm``, ``from .superop
import embed_local``), so each wrapper is installed in every namespace the
call is looked up in.  Spans stay in memory and are written out once, when
the command ends.

:func:`layer_metrics` turns the spans of one pass over a workload into the
per-layer metrics: calls, self time (duration minus the time covered by
child spans) and counts.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

# Per-layer metric names, in report order.  Names ending in "calls" count
# calls; "self_s" is self time in seconds; "dim"/"dim_max" are the largest
# size seen; other counts are summed over calls.  cli.self_s is the time of
# cli.main not covered by any traced call.
LAYER_METRICS = (
    "cli.self_s",
    "classical.mv_classify.calls", "classical.mv_classify.self_s",
    "evolve.reachable.calls", "evolve.reachable.self_s",
    "evolve.reachable.states", "evolve.reachable.wasted_s",
    "evolve.reachable.useful_ratio",
    "evolve.expm_multiply.calls", "evolve.expm_multiply.self_s",
    "evolve.expm.calls", "evolve.expm.self_s", "evolve.expm.dim_max",
    "evolve.gillespie.calls", "evolve.gillespie.self_s",
    "evolve.gillespie.trajectories",
    "evolve.rate_matrix.calls", "evolve.rate_matrix.self_s",
    "evolve.rate_matrix.states",
    "evolve.diagonal_dynamics.calls", "evolve.diagonal_dynamics.self_s",
    "evolve.krylov_expmv.calls", "evolve.krylov_expmv.self_s",
    "evolve.krylov_expmv.dim",
    "evolve.discrete_run.calls", "evolve.discrete_run.self_s",
    "evolve.discrete_run.steps",
    "evolve.continuous_evolve.calls", "evolve.continuous_evolve.self_s",
    "evolve.mv_worst_case_times.calls", "evolve.mv_worst_case_times.self_s",
    "models.spec_build.calls", "models.spec_build.self_s",
    "models.step_build.calls", "models.step_build.self_s",
    "models.step_build.nnz",
    "mlopt.ml_cost.calls", "mlopt.ml_cost.self_s", "mlopt.ml_cost.s_per_eval",
    "mlopt.optimize_weights.calls", "mlopt.optimize_weights.self_s",
    "observables.sample.calls", "observables.sample.self_s",
    "spectra.spectrum.calls", "spectra.spectrum.self_s", "spectra.spectrum.dim",
    "superop.embed_local.calls", "superop.embed_local.self_s",
    "superop.embed_local.nnz",
    "superop.assemble_lindbladian.calls", "superop.assemble_lindbladian.self_s",
    "superop.assemble_lindbladian.dim", "superop.assemble_lindbladian.nnz",
    "trace.overhead_s",
)

ROOT_SPAN = "cli.main"
_MAX_COUNTS = ("dim", "dim_max")


class Tracer:
    """Span recorder for one command process.

    Spans are tuples ``(name, start, end, parent, id, ok, counts)``.  A call
    made on a worker thread with no open span of its own is parented to the
    root span, which is the ``cli.main`` call that started the work.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """Wrapper of ``fn`` that records a span; ``count(args, kwargs,
        result)`` returns the span's problem-size counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((name, start, end, parent, span_id, False,
                                   {}))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = count(args, kwargs, result) if count else {}
            self.spans.append((name, start, end, parent, span_id, True,
                               counts))
            return result

        return traced

    def run_root(self, fn, *args):
        """Call ``fn`` as the root span: the parent of every span opened on
        any thread while no other span is open on that thread."""
        self._root = next(self._ids)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            self.spans.append((ROOT_SPAN, start, time.perf_counter(), 0,
                               self._root, ok, {}))

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, count))


def _argument(fn, name: str):
    """Reader of argument ``name`` from a call's (args, kwargs)."""
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function of the imported qcadc package."""
    from qcadc import classical, evolve, mlopt, models, spectra, superop
    dyn = evolve.DiagonalDynamics
    p = tracer.patch

    p(classical, "mv_classify", "classical.mv_classify")
    p(dyn, "reachable", "evolve.reachable",
      lambda a, k, r: {"states": len(r[0])})
    n_traj = _argument(dyn.gillespie_mean_occupancy, "n_traj")
    p(dyn, "gillespie_mean_occupancy", "evolve.gillespie",
      lambda a, k, r: {"trajectories": int(n_traj(a, k))})
    p(dyn, "rate_matrix", "evolve.rate_matrix",
      lambda a, k, r: {"states": int(r.shape[0])})
    p(dyn, "__init__", "evolve.diagonal_dynamics")
    p(evolve, "expm_multiply", "evolve.expm_multiply")
    for owner in (evolve, mlopt):
        p(owner, "expm", "evolve.expm",
          lambda a, k, r: {"dim_max": int(r.shape[0])})
    p(evolve, "krylov_expmv", "evolve.krylov_expmv",
      lambda a, k, r: {"dim": int(len(r))})
    p(evolve, "discrete_run", "evolve.discrete_run",
      lambda a, k, r: {"steps": int(r.time_reached)})
    # the callers of the kernels above: their self time is the
    # time-grid propagation and bookkeeping between kernel calls
    p(evolve, "continuous_evolve", "evolve.continuous_evolve")
    p(evolve, "mv_worst_case_times", "evolve.mv_worst_case_times")
    p(mlopt, "optimize_weights", "mlopt.optimize_weights")
    for attr in ("density_n", "expval_sz", "trace_of"):
        p(evolve, attr, "observables.sample")
    for attr in ("fuks_lindblad", "dephasing_lindblad", "mv_lindblads",
                 "ml_lindblad"):
        p(models, attr, "models.spec_build")
    p(mlopt, "ml_lindblad", "models.spec_build")
    for attr in ("fuks_step", "mv_spread_step", "mv_consensus_step",
                 "fates_step"):
        p(models, attr, "models.step_build",
          lambda a, k, r: {"nnz": int(r.matrix.nnz)})
    p(mlopt, "ml_cost", "mlopt.ml_cost")
    p(spectra, "spectrum", "spectra.spectrum",
      lambda a, k, r: {"dim": 4 ** int((r[0] if isinstance(r, tuple)
                                        else r).n_sites)})
    for owner in (superop, models):
        p(owner, "embed_local", "superop.embed_local",
          lambda a, k, r: {"nnz": int(r.nnz)})
    for owner in (superop, evolve, spectra):
        p(owner, "assemble_lindbladian", "superop.assemble_lindbladian",
          lambda a, k, r: {"dim": int(r.matrix.shape[0]),
                           "nnz": int(r.matrix.nnz)})


# ---------------------------------------------------------------------------
# aggregation (runs in run.py)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_stats(processes: list[list]) -> dict[str, dict]:
    """Per span name: calls, ok calls, inclusive and self time, counts.

    ``processes`` holds one span list per command process; span ids are
    unique only within a process."""
    stats: dict[str, dict] = {}
    for spans in processes:
        children: dict[int, list] = {}
        for name, start, end, parent, span_id, ok, counts in spans:
            children.setdefault(parent, []).append((start, end))
        for name, start, end, parent, span_id, ok, counts in spans:
            st = stats.setdefault(name, {"calls": 0, "ok": 0, "total_s": 0.0,
                                         "self_s": 0.0, "failed_s": 0.0,
                                         "counts": {}})
            duration = end - start
            st["calls"] += 1
            st["ok"] += int(ok)
            st["total_s"] += duration
            st["self_s"] += duration - _covered(children.get(span_id, []))
            if not ok:
                st["failed_s"] += duration
            for key, value in counts.items():
                if key in _MAX_COUNTS:
                    st["counts"][key] = max(st["counts"].get(key, 0), value)
                else:
                    st["counts"][key] = st["counts"].get(key, 0) + value
    return stats


def layer_metrics(stats: dict[str, dict]) -> dict[str, float]:
    """Values of every LAYER_METRICS name except trace.overhead_s."""
    out = {}
    for metric in LAYER_METRICS:
        if metric == "trace.overhead_s":
            continue
        layer, stat = metric.rsplit(".", 1)
        if metric == "cli.self_s":
            layer = ROOT_SPAN
        st = stats.get(layer, {"calls": 0, "ok": 0, "total_s": 0.0,
                               "self_s": 0.0, "failed_s": 0.0, "counts": {}})
        if stat in ("calls", "self_s"):
            value = st[stat]
        elif stat == "wasted_s":
            value = st["failed_s"]
        elif stat == "useful_ratio":
            value = st["ok"] / st["calls"] if st["calls"] else 0.0
        elif stat == "s_per_eval":
            value = st["total_s"] / st["calls"] if st["calls"] else 0.0
        else:
            value = st["counts"].get(stat, 0)
        out[metric] = value
    return out


def problem_sizes(stats: dict[str, dict]) -> dict[str, int]:
    """The exact, seed-determined counts: calls and sizes per span name."""
    out = {}
    for name, st in sorted(stats.items()):
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.ok"] = st["ok"]
        for key, value in sorted(st["counts"].items()):
            out[f"{name}.{key}"] = value
    return out
