"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

They check that a tiny configuration of every workload runs and passes its
oracles, that a child paused for reference samples has the pauses taken
out of its times, that corrupted outputs are counted as failed commands,
that the traced run records a span for every layer the per-layer metrics
name, and that BENCHMARK.json lists exactly the metrics and workloads
run.py reports.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def test_tiny_workloads_pass():
    for name in workloads.WORKLOADS:
        result = run.run_workload(name, SEED, 0, trace=False, tiny=True,
                                  min_passes=1)["result"]
        assert result["correct"], (name, result)
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values()), result


def test_pauses_are_taken_out_of_times():
    assert run.unpaused(0.0, 10.0, [(-3.0, -1.0), (1.0, 2.0), (9.5, 11.0)]) \
        == 8.5
    run.WORK.mkdir(exist_ok=True)
    ref = run.Reference()
    result, status, t_spawn, samples, pauses = run.spawn(
        run.WORK / "selftest-probe.json", run.WORK / "selftest-probe.log",
        False, [], float("inf"), ref)
    assert status == 0 and result["qcadc_file"], result
    # one sample before the child, one per pause, one after it
    assert len(samples) == len(pauses) + 2 and pauses, (samples, pauses)
    assert run.ref_between(samples, t_spawn, result["imported"]) > 0
    assert run.unpaused(t_spawn, result["imported"], pauses) < (
        result["imported"] - t_spawn)


def _with_corruption(corrupt, passes=1) -> dict:
    """Tiny gap-scan run whose outputs are altered before they are checked."""
    original = workloads.check_outputs
    calls = []

    def check(command, out, record):
        calls.append(out)
        corrupt(out, len(calls))
        return original(command, out, record)

    workloads.check_outputs = check
    try:
        return run.run_workload("gap-scan", SEED, 0, trace=False, tiny=True,
                                min_passes=passes)["result"]
    finally:
        workloads.check_outputs = original


def _edit_gap(out: Path, row: int, value: str) -> None:
    path = out / "gaps.csv"
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[2] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_outputs_are_failures():
    def wrong_gap(out, call):
        _edit_gap(out, 1, "0.5")

    def nan_gap(out, call):
        _edit_gap(out, 2, "nan")

    def nan_json(out, call):
        path = out / "fits.json"
        path.write_text(path.read_text().replace(
            '"engine_version": ', '"engine_version": NaN, "x": ', 1))

    def second_pass_differs(out, call):
        if call == 2:
            with open(out / "ratios.csv", "a") as fh:
                fh.write("\n")

    for corrupt, passes in ((wrong_gap, 1), (nan_gap, 1), (nan_json, 1),
                            (second_pass_differs, 2)):
        result = _with_corruption(corrupt, passes)
        assert not result["correct"], corrupt.__name__
        assert result["failed"] >= 1, (corrupt.__name__, result)


def test_traced_run_spans_every_layer():
    seen = set()
    for name in workloads.WORKLOADS:
        outcome = run.run_workload(name, SEED, 0, trace=True, tiny=True)
        assert outcome["result"]["correct"], (name, outcome["detail"])
        metrics = outcome["result"]["metrics"]
        assert set(metrics) == set(tracer.LAYER_METRICS)
        seen |= {key.rsplit(".", 1)[0]
                 for key, value in outcome["detail"]["problem_sizes"].items()
                 if key.endswith(".calls") and value > 0}
    layers = {m.rsplit(".", 1)[0] for m in tracer.LAYER_METRICS} - {"trace"}
    layers = {tracer.ROOT_SPAN if layer == "cli" else layer
              for layer in layers}
    assert layers <= seen, sorted(layers - seen)


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(
        tracer.LAYER_METRICS)
    assert all(m["unit"] == run.layer_unit(m["name"])
               for m in spec["per_layer"])


if __name__ == "__main__":
    failures = 0
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {test_name}")
            except AssertionError as err:
                failures += 1
                print(f"FAIL {test_name}: {err}")
    raise SystemExit(1 if failures else 0)
