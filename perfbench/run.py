"""qcadc benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's qcadc commands as a user does: one fresh interpreter
per command, started one at a time from this process (a closed loop with
one client), with the CLI's default single worker thread and one BLAS
thread.  Passes over the workload's commands repeat, all with the same seed,
until the next pass would end after ``--seconds``; at least two passes run
(three when traced).  A short command runs several times in an untraced
pass (``Command.repeat``).  A command's time is the median of its samples,
and ``wall_s`` is the sum of those medians over the workload's commands.

The shared host's speed moves by tens of percent from one second to the
next, so the end-to-end times (``wall_s``, ``setup_s``, ``first_cmd_s``,
``last_cmd_s``) are in seconds at a fixed reference speed.  This process
times a fixed kernel (``calibrate.py``) before and after every child and,
stopping the child for it, every ``PAUSE_EVERY_S`` while it runs.  A child's
set-up and command times, less those pauses, are each scaled by the ratio of
``REF_KERNEL_S`` to the kernel's mean unit time across that interval, raised
to ``SPEED_EXPONENT``.  The detail record keeps the unscaled times too.
Traced runs neither pause nor scale.

Every command's outputs go through the physics oracles in ``workloads.py``
and must be byte-identical to the first pass's.  A command that exits with
an unexpected code, raises, or fails a check counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` passes alternate between
traced and untraced, and the metrics are the per-layer ones.  The line
before it is a JSON detail record (environment, per-command times, methods,
problem sizes), also written to ``.perfbench_work/``.
``--workload all`` runs every workload and prints a table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# first_cmd_s and last_cmd_s time a workload's first and last command on
# their own (mv-verify and mv-run; evolve discrete and Krylov), so that a
# regression in the smaller one is not hidden by the larger; for one-command
# workloads both equal wall_s.
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "first_cmd_s": "s", "last_cmd_s": "s",
}
# At most nproc; one, because the CLI's own work is single-threaded and a
# second BLAS thread on a small shared machine makes timings less repeatable.
BLAS_THREADS = 1
SETUP_PROBES = 2          # import-only processes per run, for setup_s
# Two passes, so that the longest workloads end within --seconds; three when
# traced, so that a traced run has two traced passes to compare problem
# sizes and one untraced pass for the tracing overhead.
MIN_PASSES = 2
MIN_TRACED_PASSES = 3
HARD_LIMIT_S = 170.0      # a run must end within 180 s
# Seconds that one unit of calibrate.kernel() takes on the 2-core VM the
# benchmark was defined on.  An untraced run's times are scaled by
# (REF_KERNEL_S / the unit time measured around and during each process)
# ** SPEED_EXPONENT.  The exponent is below 1 because the measured unit
# time carries noise of its own: across runs on that VM, the log of a
# command's time rose by about 0.7 per unit rise in the log of the unit
# time, and scaling by the full ratio made run-to-run spreads wider again.
REF_KERNEL_S = 0.009
SPEED_EXPONENT = 0.7
REF_UNITS = 3             # kernel units per reference sample, ~27 ms
PAUSE_EVERY_S = 0.3       # how often a running child stops for a sample


class FatalError(RuntimeError):
    """The program under test cannot be run at all; no result is printed."""


def layer_unit(metric: str) -> str:
    if metric.endswith("useful_ratio"):
        return "ratio"
    if metric.endswith(("_s", "s_per_eval")):
        return "s"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Reference:
    """Samples of the reference kernel, taken around and during children.

    The kernel runs in this process, which never imports qcadc: once before
    the first child, every PAUSE_EVERY_S while a child runs (the child is
    stopped for it and continued afterwards) and once after each child
    ends.  Each sample is (start, end, seconds per kernel unit).
    """

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self) -> tuple[float, float]:
        """Take one sample; returns the interval it took."""
        start = time.monotonic()
        unit_s = calibrate.measure(REF_UNITS) / REF_UNITS
        self.samples.append((start, time.monotonic(), unit_s))
        return self.samples[-1][:2]


def ref_between(samples: list, start: float, end: float) -> float:
    """Mean unit time of the samples taken between ``start`` and ``end`` and
    of the nearest one on each side: the host's speed over that interval."""
    before = [s for s in samples if s[1] <= start][-1:]
    inside = [s for s in samples if s[1] > start and s[0] < end]
    after = [s for s in samples if s[0] >= end][:1]
    return statistics.mean(s[2] for s in before + inside + after)


def scaled(seconds: float, ref_s: float | None) -> float:
    """A time measured while a kernel unit took ref_s, at reference
    speed; unscaled without a reference time."""
    if not ref_s:
        return seconds
    return seconds * (REF_KERNEL_S / ref_s) ** SPEED_EXPONENT


def unpaused(start: float, end: float, pauses: list) -> float:
    """``end - start`` less the pauses that fall between them."""
    return end - start - sum(max(0.0, min(b, end) - max(a, start))
                             for a, b in pauses)


def spawn(result_path: Path, log_path: Path, trace: bool,
          qcadc_args: list[str], deadline: float,
          ref: Reference | None = None) -> tuple:
    """Start child.py and wait for it, pausing it for reference samples when
    ``ref`` is given.  Returns (result, exit status, t_spawn, the reference
    samples from the one before the child to the one after it, pauses)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           "1" if trace else "0"]
    if qcadc_args:
        cmd += ["--", *qcadc_args]
    result_path.unlink(missing_ok=True)
    first = len(ref.samples) - 1 if ref else 0
    pauses = []
    status = None
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            while status is None and time.monotonic() < deadline:
                left = deadline - time.monotonic()
                try:
                    status = proc.wait(timeout=min(left, PAUSE_EVERY_S)
                                       if ref else left)
                except subprocess.TimeoutExpired:
                    if ref is None:
                        continue
                    proc.send_signal(signal.SIGSTOP)
                    try:
                        pauses.append(ref.sample())
                    finally:
                        proc.send_signal(signal.SIGCONT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    samples = []
    if ref is not None:
        ref.sample()
        samples = ref.samples[first:]
    if status is None:
        return {"error": "timed out"}, -9, t_spawn, samples, pauses
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {}
    return result, status, t_spawn, samples, pauses


def check_program(result: dict, log_path: Path) -> None:
    """The child must have imported qcadc from this checkout's sources."""
    qcadc_file = result.get("qcadc_file")
    if qcadc_file is None:
        raise FatalError(f"qcadc could not be imported from {SRC}:\n"
                         + log_path.read_text()[-2000:])
    if not Path(qcadc_file).resolve().is_relative_to(SRC.resolve()):
        raise FatalError(f"qcadc was imported from {qcadc_file}, "
                         f"not from {SRC}")


def probe(work: Path, deadline: float,
          ref: Reference | None = None) -> tuple[float, float | None]:
    """One import-only process; returns its set-up time and the reference
    unit time over it (None without ``ref``)."""
    result, _, t_spawn, samples, pauses = spawn(
        work / "probe.json", work / "probe.log", False, [], deadline, ref)
    check_program(result, work / "probe.log")
    return (unpaused(t_spawn, result["imported"], pauses),
            ref_between(samples, t_spawn, result["imported"])
            if samples else None)


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_command(command, seed: int, trace: bool, work: Path, run_id: str,
                deadline: float, ref: Reference) -> dict:
    """Run one CLI command in a fresh process; returns its record."""
    cfg_path = work / f"{command.name}.json"
    out = work / command.name
    cfg_path.write_text(json.dumps(command.config, indent=1))
    args = [command.subcommand, "--config", str(cfg_path), "--out", str(out),
            "--seed", str(seed)]
    result, status, t_spawn, samples, pauses = spawn(
        work / f"{command.name}.result.json", work / f"{command.name}.log",
        trace, args, deadline, ref)
    record = {"command": command.name, "run_id": run_id, "traced": trace,
              "spans": result.get("spans", [])}
    if "qcadc_file" not in result:      # killed, timed out or crashed
        record["problems"] = [result.get("error",
                                         f"no result, exit status {status}")]
        return record
    check_program(result, work / f"{command.name}.log")
    record.update(setup_s=unpaused(t_spawn, result["imported"], pauses),
                  wall_s=unpaused(result["started"], result["done"], pauses),
                  pauses=len(pauses),
                  exit_code=result["exit_code"], rss_mb=result["rss_mb"],
                  blas_threads=result["blas_threads"],
                  versions=result["versions"])
    if samples:
        record.update(
            setup_ref_s=ref_between(samples, t_spawn, result["imported"]),
            wall_ref_s=ref_between(samples, result["started"],
                                   result["done"]))
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}")
    if result.get("error"):
        problems.append(result["error"].strip().splitlines()[-1])
    if result.get("missing"):
        problems.append(f"trace targets missing: {result['missing']}")
    if not problems:
        problems = workloads.check_outputs(command, out, record)
        record["digest"] = digest(out)
    record["problems"] = problems
    return record


def timing_summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above."""
    ordered = sorted(samples)
    k = len(ordered)
    tail = None
    if k >= 11:
        tail = {"percentile": 100.0 * (k - 10) / k, "value": ordered[k - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "samples": k}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, min_passes: int | None = None) -> dict:
    """Measure one workload; returns the final result object and detail."""
    if min_passes is None:
        min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    workload = workloads.build(name, seed, tiny)
    work = WORK / f"{name}{'-tiny' if tiny else ''}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probe(work, hard_deadline)          # fills the bytecode cache; untimed
    ref = None if trace else Reference()
    setups = [probe(work, hard_deadline, ref) for _ in range(SETUP_PROBES)]
    deadline = time.monotonic() + seconds
    passes = []
    first_digests: dict[str, str] = {}
    while True:
        index = len(passes)
        traced = trace and index % 2 == 0
        pass_dir = work / f"pass{index}"
        pass_dir.mkdir()
        t0 = time.monotonic()
        records = []
        for command in workload.commands:
            for rep in range(1 if traced else command.repeat):
                run_id = f"{name}/seed{seed}/pass{index}/{command.name}/{rep}"
                rec = run_command(command, seed, traced, pass_dir, run_id,
                                  hard_deadline, ref)
                want = first_digests.setdefault(command.name,
                                                rec.get("digest"))
                if "digest" in rec and rec["digest"] != want:
                    rec["problems"].append("output differs from the first "
                                           "run with the same seed")
                records.append(rec)
        shutil.rmtree(pass_dir)
        passes.append({"traced": traced, "commands": records,
                       "duration_s": time.monotonic() - t0})
        now = time.monotonic()
        if len(passes) >= min_passes and (
                now + passes[-1]["duration_s"] > deadline
                or now > hard_deadline - 2 * passes[-1]["duration_s"]):
            break
    return summarize(workload, seed, trace, passes, setups, work)


def summarize(workload, seed: int, trace: bool, passes: list, setups: list,
              work: Path) -> dict:
    plain = [p for p in passes if not p["traced"]]
    records = [r for p in passes for r in p["commands"]]
    failed = sum(bool(r["problems"]) for r in records)
    run_problems = []
    setups = setups + [(r["setup_s"], r.get("setup_ref_s")) for p in plain
                       for r in p["commands"] if "setup_s" in r]
    ran = [r for r in records if "versions" in r] or [
        {"blas_threads": {}, "versions": {}}]
    n_cmds = len(workload.commands)
    nproc = len(os.sched_getaffinity(0))

    def samples(command, chosen, raw=False):
        return [r["wall_s"] if raw else scaled(r["wall_s"],
                                                 r.get("wall_ref_s"))
                for p in chosen for r in p["commands"]
                if r["command"] == command.name and "wall_s" in r] or [0.0]

    def wall(chosen, raw=False):
        """Sum over the commands of the median of each one's samples."""
        return sum(statistics.median(samples(c, chosen, raw))
                   for c in workload.commands)

    walls = [wall([p]) for p in plain]
    setup_scaled = [scaled(t, ref_s) for t, ref_s in setups]
    detail = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "environment": {
            "nproc": nproc, "platform": platform.platform(),
            "blas_threads_requested": BLAS_THREADS,
            "blas_threads": ran[0]["blas_threads"],
            "cli_threads": 1,
            **ran[0]["versions"]},
        "configs": {c.name: c.config for c in workload.commands},
        "ref_kernel_s": {"reference": REF_KERNEL_S, **timing_summary(
            [r["wall_ref_s"] for p in plain for r in p["commands"]
             if "wall_ref_s" in r] or [0.0])},
        "wall_s": timing_summary(walls),
        "command_s": {c.name: timing_summary(samples(c, plain))
                      for c in workload.commands},
        "setup_s_single": timing_summary(setup_scaled),
        "unscaled": {
            "wall_s": wall(plain, raw=True),
            "setup_s": n_cmds * statistics.median(t for t, _ in setups),
            "command_s": {c.name: timing_summary(samples(c, plain, True))
                          for c in workload.commands}},
        "passes": [{"traced": p["traced"], "duration_s": p["duration_s"],
                    "commands": [{k: v for k, v in r.items() if k != "spans"}
                                 for r in p["commands"]]}
                   for p in passes],
    }
    too_many = [r["blas_threads"] for r in ran
                if any(v > nproc for v in r["blas_threads"].values())]
    if too_many:
        run_problems.append(f"BLAS thread count above nproc: {too_many[0]}")

    if not trace:
        metrics = {
            "wall_s": wall(plain),
            "setup_s": n_cmds * statistics.median(setup_scaled),
            "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in records),
            "first_cmd_s": statistics.median(
                samples(workload.commands[0], plain)),
            "last_cmd_s": statistics.median(
                samples(workload.commands[-1], plain)),
        }
        units = END_TO_END
    else:
        per_pass, sizes = [], []
        for p in passes:
            if not p["traced"]:
                continue
            stats = tracing.layer_stats([r["spans"] for r in p["commands"]])
            per_pass.append(tracing.layer_metrics(stats))
            sizes.append(tracing.problem_sizes(stats))
        if any(s != sizes[0] for s in sizes):
            run_problems.append("problem sizes differ between traced passes "
                                "with the same seed")
        detail["problem_sizes"] = sizes[0]
        metrics = {m: statistics.median(pm[m] for pm in per_pass)
                   for m in per_pass[0]}
        traced_walls = [wall([p]) for p in passes if p["traced"]]
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        units = {m: layer_unit(m) for m in tracing.LAYER_METRICS}
        (work / "spans.jsonl").write_text("".join(
            json.dumps([r["run_id"], *s]) + "\n"
            for p in passes for r in p["commands"] for s in r["spans"]))

    detail["methods"] = {r["command"]: r.get("methods", r.get("method"))
                         for r in plain[0]["commands"]
                         if "methods" in r or "method" in r}
    detail["evaluations"] = {r["command"]: r["evaluations"]
                             for r in plain[0]["commands"]
                             if "evaluations" in r}
    detail["problems"] = run_problems + [
        f"{r['command']}: {msg}" for r in records for msg in r["problems"]]
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]}
                    for m in units},
    }
    return {"result": result, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcadc" / "__init__.py").is_file():
        print(f"error: no qcadc sources under {SRC}", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
    except FatalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for name, outcome in outcomes.items():
        path = WORK / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(outcome, indent=1) + "\n")
        res = outcome["result"]
        print(f"{name}: fail_rate {res['failed'] / res['attempted']:.3g} "
              f"({res['failed']} of {res['attempted']} commands failed)")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:12.6g} {m['unit']}")
    if len(outcomes) == 1:
        outcome = outcomes[names[0]]
        print(json.dumps(outcome["detail"]))
        print(json.dumps(outcome["result"]))
        return 0
    combined = {
        "correct": all(o["result"]["correct"] for o in outcomes.values()),
        "attempted": sum(o["result"]["attempted"] for o in outcomes.values()),
        "failed": sum(o["result"]["failed"] for o in outcomes.values()),
        "metrics": {f"{name}/{m}": v for name, o in outcomes.items()
                    for m, v in o["result"]["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
