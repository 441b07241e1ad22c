"""Command-line interface: configs, outputs, exit codes, determinism."""
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcadc import evolve
from qcadc.cli import main, write_json


def run(tmp_path, command, cfg=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = [command, "--out", str(tmp_path / "out")]
    if cfg is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv += ["--config", str(cfg_path)]
    argv += list(extra)
    return main(argv), tmp_path / "out"


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_evolve_continuous_fuks_example(tmp_path):
    cfg = {
        "model": {"id": "fuks", "params": {"p": 0.3}},
        "n_sites": 3,
        "initial": {"bits": "001"},
        "evolution": {"kind": "continuous", "t": 200.0},
        "samples": 16,
    }
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t", "n_over_N", "s_z", "trace", "method"]
    assert len(rows) == 17
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["final"]["n_over_N"] - 1 / 3) < 1e-6
    assert summary["method"] == "diagonal"
    assert "config_hash" in summary and "engine_version" in summary


def _traced_peak(tmp_path, cfg):
    """(exit code, summary, the peak of memory traced during the run)."""
    import tracemalloc
    tracemalloc.start()
    try:
        code, out = run(tmp_path, "evolve", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, json.loads((out / "summary.json").read_text()), peak


@pytest.mark.parametrize("evolution, method", [
    ({"kind": "discrete", "steps": 5}, "discrete"),
    ({"kind": "continuous", "t": 5.0}, "diagonal"),
])
def test_evolve_from_bits_allocates_no_4n_array(tmp_path, evolution, method):
    # the state lives on the 134 doubled indices the half cluster reaches;
    # one 4^12 complex vector is 256 MiB
    cfg = {"model": {"id": "fuks", "params": {"p": 0.3}}, "n_sites": 12,
           "initial": {"bits": "111111000000"}, "evolution": evolution}
    code, summary, peak = _traced_peak(tmp_path, cfg)
    assert code == 0 and summary["method"] == method
    assert peak < 32 * 2 ** 20
    assert abs(summary["final"]["trace"] - 1) < 1e-12


@pytest.mark.parametrize("evolution, method, beta_abs", [
    # one discrete step removes the extreme coherence |0..0><1..1|; the
    # continuous generator keeps it
    ({"kind": "discrete", "steps": 3}, "discrete", 0.0),
    ({"kind": "continuous", "t": 1.0}, "krylov", 0.5),
])
def test_evolve_from_ghz_at_14_sites_holds_its_4_codes(tmp_path, evolution,
                                                      method, beta_abs):
    # the 2^14 x 2^14 outer product and its 4^14 vector would take 4 GiB
    # each
    cfg = {"model": {"id": "fuks", "params": {"p": 0.3}}, "n_sites": 14,
           "initial": {"named": "ghz"}, "evolution": evolution,
           **({"samples": 2} if evolution["kind"] == "continuous" else {})}
    code, summary, peak = _traced_peak(tmp_path, cfg)
    assert code == 0 and summary["method"] == method
    assert peak < 32 * 2 ** 20
    final = summary["final"]
    assert abs(final["beta_abs"] - beta_abs) < 1e-12
    assert abs(final["n_over_N"] - 0.5) < 1e-12
    assert abs(final["trace"] - 1) < 1e-12


@pytest.mark.parametrize("evolution, method", [
    ({"kind": "discrete", "steps": 10}, "discrete"),
    ({"kind": "continuous", "t": 5.0}, "diagonal"),
])
def test_evolve_runs_fuks_past_14_sites_from_the_half_cluster(
        tmp_path, evolution, method):
    cfg = {"model": {"id": "fuks", "params": {"p": 0.3}}, "n_sites": 16,
           "initial": {"bits": "1" * 8 + "0" * 8}, "evolution": evolution}
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == method and summary["n_sites"] == 16
    assert abs(summary["final"]["n_over_N"] - 0.5) < 1e-12
    assert abs(summary["final"]["trace"] - 1) < 1e-12
    _, rows = read_csv(out / "trajectory.csv")
    assert rows[0][:4] == ["0", "0.5", "0", "1"]


def test_evolve_refuses_a_state_past_the_reached_set_cap(tmp_path, capsys,
                                                         monkeypatch):
    # with hopping the half cluster at N = 6 reaches C(6, 3)^2 = 400 codes
    monkeypatch.setattr(evolve, "_MAX_REACHED", 399)
    cfg = {"model": {"id": "dephasing", "params": {"omega": 1.0}},
           "n_sites": 6, "initial": {"bits": "111000"},
           "evolution": {"kind": "continuous", "t": 1.0}}
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: evolution: the state reaches more than 399 doubled indices")
    assert not out.exists()
    monkeypatch.setattr(evolve, "_MAX_REACHED", 400)
    assert run(tmp_path, "evolve", cfg)[0] == 0


def test_evolve_takes_initial_bits_as_a_list(tmp_path):
    cfg = {"model": {"id": "fuks", "params": {"p": 0.3}}, "n_sites": 3,
           "evolution": {"kind": "continuous", "t": 1.0}, "samples": 4}
    _, as_str = run(tmp_path / "str", "evolve",
                    {**cfg, "initial": {"bits": "001"}})
    code, as_list = run(tmp_path / "list", "evolve",
                        {**cfg, "initial": {"bits": [0, 0, 1]}})
    assert code == 0
    assert ((as_str / "trajectory.csv").read_bytes()
            == (as_list / "trajectory.csv").read_bytes())


def test_initial_bits_is_the_vectorized_basis_density():
    from conftest import basis_density
    from qcadc.cli import build_initial
    from qcadc.superop import vectorize
    rng = np.random.default_rng(5)
    strings = [format(c, f"0{n}b") for n in range(1, 6) for c in range(2 ** n)]
    strings += ["".join(rng.choice(["0", "1"], 8)) for _ in range(4)]
    for bits in strings:
        got = build_initial({"bits": bits}, len(bits))
        want = vectorize(basis_density([int(b) for b in bits])).amplitudes
        # a block state on its one code
        assert got.codes is not None and len(got.codes) == 1
        got = got.full().amplitudes
        assert got.dtype == want.dtype and np.array_equal(got, want), bits


def test_evolve_rejects_unknown_model(tmp_path):
    cfg = {
        "model": {"id": "nope"},
        "n_sites": 3,
        "initial": {"bits": "001"},
        "evolution": {"kind": "continuous", "t": 1.0},
    }
    code, _ = run(tmp_path, "evolve", cfg)
    assert code == 1


def test_evolve_rejects_unknown_key_by_name(tmp_path, capsys):
    cfg = {
        "model": {"id": "fuks"},
        "n_sites": 3,
        "initial": {"bits": "001"},
        "evolution": {"kind": "continuous", "t": 1.0},
        "typo_key": 1,
    }
    code, _ = run(tmp_path, "evolve", cfg)
    assert code == 1
    assert "typo_key" in capsys.readouterr().err


def file_state_config(tmp_path, rho):
    path = tmp_path / "rho.npy"
    np.save(path, rho)
    return {
        "model": {"id": "fuks", "params": {"p": 0.3}},
        "n_sites": 3,
        "initial": {"file": str(path)},
        "evolution": {"kind": "continuous", "t": 1.0},
        "samples": 2,
    }


def test_evolve_accepts_density_matrix_file(tmp_path):
    rho = np.diag([0.5, 0.25, 0.25, 0, 0, 0, 0, 0]).astype(complex)
    rho[1, 2], rho[2, 1] = 0.1j, -0.1j
    code, out = run(tmp_path, "evolve", file_state_config(tmp_path, rho))
    assert code == 0
    assert (out / "summary.json").exists()


def _bad_densities():
    wrong_shape = np.eye(4) / 4
    trace_two = np.diag([1.0, 0.5, 0.5, 0, 0, 0, 0, 0])
    non_hermitian = np.eye(8, dtype=complex) / 8
    non_hermitian[0, 1] = 0.01
    negative = np.diag([0.75, 0.5, -0.25, 0, 0, 0, 0, 0])
    return [(wrong_shape, "has shape (4, 4)"),
            (trace_two, "trace check failed"),
            (non_hermitian, "hermiticity check failed"),
            (negative, "positivity check failed")]


@pytest.mark.parametrize("rho, message", _bad_densities(),
                         ids=["shape", "trace", "hermiticity", "positivity"])
def test_evolve_rejects_bad_density_matrix_file(tmp_path, capsys, rho,
                                                message):
    code, out = run(tmp_path, "evolve", file_state_config(tmp_path, rho))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_evolve_converge_exit_codes(tmp_path):
    cfg = {
        "model": {"id": "fuks", "params": {"p": 0.3}},
        "n_sites": 3,
        "initial": {"bits": "001"},
        "evolution": {"kind": "converge", "tol": 1e-9, "horizon": 2},
    }
    code, _ = run(tmp_path, "evolve", cfg)
    assert code == 2            # horizon too short
    cfg["evolution"]["horizon"] = 2000
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["converged"]


@pytest.mark.parametrize("model, initial, evolution, message", [
    ({"id": "fuks"}, {"bits": "001"}, {"kind": "continuous", "t": -1.0},
     "finite and non-negative"),
    ({"id": "fuks"}, {"bits": "001"},
     {"kind": "continuous", "t": float("inf")}, "finite and non-negative"),
    ({"id": "fuks"}, {"bits": "001"},
     {"kind": "continuous", "t": float("nan")}, "finite and non-negative"),
    ({"id": "fuks"}, {"bits": "0a1"}, {"kind": "continuous", "t": 1.0},
     "initial.bits"),
    ({"id": "fuks"}, {"bits": "001"}, {"kind": "continuous"},
     "missing key evolution.t"),
    ({"id": "mv-spread"}, {"bits": "011"}, {"kind": "discrete", "steps": -1},
     "max_steps must be non-negative"),
    # a run that converges, so that an unchecked horizon returns
    ({"id": "fuks", "params": {"p": 0.3}}, {"bits": "001"},
     {"kind": "converge", "horizon": float("inf")},
     "horizon must be finite and non-negative"),
    ({"id": "fuks"}, {"bits": "001"}, {"kind": "converge", "horizon": -5},
     "horizon must be finite and non-negative"),
], ids=["negative-t", "infinite-t", "nan-t", "bad-bits", "missing-t",
        "negative-steps", "infinite-horizon", "negative-horizon"])
def test_evolve_rejects_bad_run(tmp_path, capsys, model, initial, evolution,
                                message):
    cfg = {"model": model, "n_sites": 3, "initial": initial,
           "evolution": evolution}
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_evolve_dense_refuses_a_block_past_the_expm_cap(tmp_path):
    # dephasing with hopping from four adjacent ones on nine sites reaches
    # 15,876 doubled indices, 3.76 GiB as one dense matrix.  The run is
    # refused before any dense allocation; the child's address space is
    # capped at 2 GiB, so a run that allocated would fail, not take the
    # machine's memory
    import resource
    probe = (
        "from qcadc import cli, evolve\n"
        "spec = cli.build_spec({'id': 'dephasing', 'params': {'omega': 1.0}},"
        " 9)\n"
        "state = cli.build_initial({'bits': '111100000'}, 9)\n"
        "try:\n"
        "    evolve.continuous_evolve(spec, state, 1.0, method='dense',"
        " samples=2)\n"
        "except ValueError as err:\n"
        "    print(err)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2 << 30, 2 << 30)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "the dense method takes at most 4,096 reached doubled indices; the "
        "state reaches 15,876\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", [
    # the Hamiltonian term keeps the run off the diagonal path
    {"id": "dephasing", "params": {"omega": 1e308, "gamma": 1e308}},
    {"id": "fuks", "params": {"gamma": 1e308}},
], ids=["dense", "diagonal"])
def test_evolve_non_finite_rates_exit_3_without_output(tmp_path, capsys,
                                                       model):
    cfg = {"model": model, "n_sites": 3, "initial": {"bits": "001"},
           "evolution": {"kind": "continuous", "t": 1.0}, "samples": 4}
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def test_gap_scan_outputs_and_ratio(tmp_path):
    cfg = {
        "models": [
            {"id": "fuks", "n_values": [3, 4]},
            {"id": "dephasing", "n_values": [3, 4]},
        ],
    }
    code, out = run(tmp_path, "gap-scan", cfg)
    assert code == 0
    header, rows = read_csv(out / "gaps.csv")
    assert header == ["model", "N", "gap", "null_dim", "method"]
    assert len(rows) == 4
    header, rows = read_csv(out / "ratios.csv")
    assert len(rows) == 2
    fits = json.loads((out / "fits.json").read_text())["fits"]
    assert "error" in fits["fuks"]      # two points cannot be fitted


def test_gap_scan_empty_range_is_config_error(tmp_path):
    code, _ = run(tmp_path, "gap-scan", {"models": [{"id": "fuks",
                                                     "n_values": []}]})
    assert code == 1


def test_gap_scan_dephasing_excludes_small_sizes_by_default(tmp_path):
    # default: sizes 4 and 5 leave the fit (here only one point remains,
    # which the fit reports as an error); an explicit override keeps them
    cfg_a = {"models": [{"id": "dephasing", "n_values": [4, 5, 6]}]}
    code, out = run(tmp_path / "a", "gap-scan", cfg_a)
    assert code == 0
    fits_a = json.loads((out / "fits.json").read_text())["fits"]["dephasing"]
    assert "error" in fits_a
    cfg_b = {"models": [{"id": "dephasing", "n_values": [4, 5, 6],
                         "fit_exclude": []}]}
    code, out = run(tmp_path / "b", "gap-scan", cfg_b)
    fits_b = json.loads((out / "fits.json").read_text())["fits"]["dephasing"]
    assert fits_b["n_points"] == 3


def test_mv_verify_small(tmp_path):
    code, out = run(tmp_path, "mv-verify", {"n_values": [6]})
    assert code == 0
    header, rows = read_csv(out / "verify.csv")
    assert rows[0][:5] == ["6", "64", "64", "9", "11"]


def test_mv_verify_rejects_unpadded(tmp_path):
    code, _ = run(tmp_path, "mv-verify", {"n_values": [7]})
    assert code == 1


@pytest.mark.parametrize("n_values", [[24], [6, 24], [27]])
def test_mv_verify_refuses_sizes_past_21(tmp_path, capsys, n_values):
    code, out = run(tmp_path, "mv-verify", {"n_values": n_values})
    assert code == 1
    assert "capped at N=21" in capsys.readouterr().err
    assert not out.exists()


def test_mv_verify_chunks_give_the_unchunked_rows(tmp_path, monkeypatch):
    from qcadc import cli
    cfg = {"n_values": [6, 9]}
    _, whole = run(tmp_path / "whole", "mv-verify", cfg)
    monkeypatch.setattr(cli, "_VERIFY_CHUNK", 7)      # 512 = 73 * 7 + 1
    _, chunked = run(tmp_path / "chunked", "mv-verify", cfg)
    for name in ("verify.csv", "summary.json"):
        assert (whole / name).read_bytes() == (chunked / name).read_bytes()
    _, rows = read_csv(whole / "verify.csv")
    assert [r[:5] for r in rows] == [["6", "64", "64", "9", "11"],
                                     ["9", "512", "512", "16", "17"]]


def test_mv_run_scan_and_fit(tmp_path):
    cfg = {"scan": {"n_values": [6, 9, 12], "n_traj": 100}, "seed": 3}
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 0
    fit = json.loads((out / "fit.json").read_text())
    assert 1.5 < fit["b"] < 3.5
    header, rows = read_csv(out / "mv_tau.csv")
    assert header[:4] == ["N", "tau_spread", "tau_consensus", "tau_total"]


def test_mv_run_scan_names_each_sampled_run(tmp_path, capsys):
    # reachable sets: 4 and 8 states at N = 6, 8 and 56 at N = 9
    cfg = {"scan": {"n_values": [6, 9], "n_traj": 50, "exact_cap": 7},
           "seed": 2}
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 0
    assert capsys.readouterr().err == "".join(
        f"note: N={n} {phase} sampled with 50 Gillespie trajectories: "
        f"reachable set exceeds exact_cap 7\n"
        for n, phase in ((6, "consensus"), (9, "spread"), (9, "consensus")))
    assert (out / "mv_tau.csv").read_text() == (
        "N,tau_spread,tau_consensus,tau_total,method_spread,"
        "method_consensus\n"
        "6,7.25208681135,1.98330550918,9.23539232053,diagonal-exact,"
        "gillespie\n"
        "9,12.9816360601,5.54424040067,18.5258764608,gillespie,gillespie\n")


def test_mv_run_benchmark_scan_keeps_its_taus(tmp_path, capsys):
    # the scan of the benchmark's majority-vote workload, seed 1: N = 24
    # consensus (9,179 states) is past the cap and sampled
    cfg = {"scan": {"n_values": list(range(6, 25, 3)), "n_traj": 300,
                    "exact_cap": 5000}}
    code, out = run(tmp_path, "mv-run", cfg, ("--seed", "1"))
    assert code == 0
    assert capsys.readouterr().err == (
        "note: N=24 consensus sampled with 300 Gillespie trajectories: "
        "reachable set exceeds exact_cap 5000\n")
    exact = "diagonal-exact"
    assert (out / "mv_tau.csv").read_text() == "".join(line + "\n" for line in (
        "N,tau_spread,tau_consensus,tau_total,method_spread,method_consensus",
        f"6,7.25208681135,2.97495826377,10.2270450751,{exact},{exact}",
        f"9,10.5776293823,5.49916527546,16.0767946578,{exact},{exact}",
        f"12,17.3889816361,6.55091819699,23.9398998331,{exact},{exact}",
        f"15,20.8347245409,8.86477462437,29.6994991653,{exact},{exact}",
        f"18,27.7662771285,9.91652754591,37.6828046745,{exact},{exact}",
        f"21,31.2721202003,12.2003338898,43.4724540902,{exact},{exact}",
        f"24,38.4641068447,13.5826377295,52.0467445743,{exact},gillespie"))
    fit = json.loads((out / "fit.json").read_text())
    assert fit["b"] == pytest.approx(2.3094443119484858, rel=1e-12)
    assert fit["q"] == pytest.approx(-4.192344383496286, rel=1e-12)


def test_mv_run_scan_never_crossing_exits_2_without_nan(tmp_path, capsys,
                                                      monkeypatch):
    def fake(n_sites, **kwargs):
        tau = float("nan") if n_sites == 9 else 2.0 * n_sites
        return {"n_sites": n_sites, "tau_spread": tau, "tau_consensus": 1.0,
                "tau_total": tau + 1.0, "method_spread": "exact",
                "method_consensus": "exact"}
    monkeypatch.setattr(evolve, "mv_worst_case_times", fake)
    cfg = {"scan": {"n_values": [6, 9, 12]}, "seed": 3}
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 2
    assert "N=[9]" in capsys.readouterr().err
    text = (out / "fit.json").read_text()
    assert "NaN" not in text
    fit = json.loads(text)
    assert fit["b"] is None and fit["q"] is None and fit["n_points"] == 3


@pytest.mark.parametrize("command, cfg", [
    ("evolve", {"model": {"id": "fuks"}, "n_sites": 6,
                "initial": {"bits": "110100"},
                "evolution": {"kind": "continuous", "t": 5.0}, "samples": 8}),
    ("mv-run", {"n_sites": 12, "initial": {"bits": "111111000000"},
                "track": "continuous", "phase": "spread", "t": 20.0}),
])
def test_trajectory_writes_conserved_zero_sz_as_zero(tmp_path, command, cfg):
    # half-filled rings conserve s_z = 0; the computed value is round-off
    code, out = run(tmp_path, command, cfg)
    assert code == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert {row[header.index("s_z")] for row in rows} == {"0"}


def test_write_json_refuses_non_finite(tmp_path):
    with pytest.raises(FloatingPointError, match="bad.json"):
        write_json(tmp_path / "bad.json", {"x": float("nan")})
    assert not (tmp_path / "bad.json").exists()


def test_mv_run_single_discrete(tmp_path):
    cfg = {"n_sites": 6, "initial": {"bits": "110100"}, "track": "discrete"}
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["label"] == 0
    used = summary["sublayers_used"]
    assert used <= summary["budget"]
    # one row per sublayer of the run, from its start
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t", "n_over_N", "s_z", "trace", "method"]
    assert [row[0] for row in rows] == [str(k) for k in range(used + 1)]
    assert rows[0] == ["0", "0.5", "0", "1", "discrete"]
    assert rows[-1] == [str(used), "0", "3", "1", "discrete"]


def test_mv_run_single_continuous(tmp_path, capsys):
    cfg = {"n_sites": 9, "initial": {"bits": "110101010"},
           "track": "continuous"}
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "diagonal-exact"
    assert abs(summary["final_n_over_N"] - 1.0) < 1e-9
    # rounded as trajectory.csv rounds its last density
    last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
    assert summary["final_n_over_N"] == float(last[1])
    for bad in (-1.0, float("inf"), float("nan")):
        cfg["t"] = bad
        code, _ = run(tmp_path / str(bad), "mv-run", cfg)
        assert code == 1
        assert "finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    ({"n_sites": 6, "initial": {"bits": "1100"}, "track": "continuous"},
     "has 4 sites, n_sites=6"),
    ({"n_sites": 9, "initial": {"bits": "110100"}, "track": "discrete"},
     "has 6 sites, n_sites=9"),
    ({"n_sites": 6, "initial": {"bits": "110100"}, "track": "continuous",
      "phase": "spreading"}, "unknown phase 'spreading'"),
    ({"n_sites": 3, "initial": {"bits": "1a0"}, "track": "discrete"},
     "initial.bits"),
    ({"n_sites": 3, "initial": {}, "track": "discrete"},
     "missing key initial.bits"),
    ({"n_sites": 4, "initial": {"bits": "1100"}, "track": "discrete"},
     "not a multiple of 3"),
    ({"n_sites": 2, "initial": {"bits": "11"}, "track": "continuous"},
     "at least 3 sites"),
])
def test_mv_run_single_rejects_bad_input(tmp_path, capsys, cfg, message):
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("bits", [[1, 1, 0.5, 0, 0, 0], [1, 1, 2, 0, 0, 0],
                                  [1, 1, -1, 0, 0, 0]])
def test_mv_run_single_refuses_non_binary_bit_lists(tmp_path, capsys, bits):
    cfg = {"n_sites": 6, "initial": {"bits": bits}, "track": "discrete"}
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: initial.bits: ")
    assert not out.exists()


def test_mv_run_single_takes_a_bit_list(tmp_path):
    cfg = {"n_sites": 6, "initial": {"bits": [1, 1, 1, 1, 0, 0]},
           "track": "discrete"}
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["label"] == 1


@pytest.mark.parametrize("steps", [float("inf"), float("nan"), 2.5, None])
def test_evolve_refuses_steps_that_are_not_whole(tmp_path, capsys, steps):
    cfg = {"model": {"id": "mv-spread"}, "n_sites": 3,
           "initial": {"bits": "110"},
           "evolution": {"kind": "discrete", "steps": steps}}
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evolution.steps must be a whole number")
    assert not out.exists()


def test_evolve_takes_whole_float_steps(tmp_path):
    cfg = {"model": {"id": "mv-spread"}, "n_sites": 3,
           "initial": {"bits": "110"},
           "evolution": {"kind": "discrete", "steps": 2.0}}
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 3


def test_evolve_refuses_uniformization_too_long_to_stream(tmp_path, capsys):
    cfg = {"model": {"id": "fuks", "params": {"gamma": 1e300}},
           "n_sites": 3, "initial": {"bits": "001"},
           "evolution": {"kind": "continuous", "t": 1.0}, "samples": 4}
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evolution: exit rate 2e+300 x time 1 = ")
    assert "too large to stream" in err
    assert not out.exists()


def test_evolve_converge_streams_a_long_horizon_in_passes(tmp_path):
    # exit rate 2e5 over the default horizon of 1000 is 2e8 expected jumps,
    # over one pass's budget; the run needs 2 unit steps
    cfg = {"model": {"id": "fuks", "params": {"gamma": 1e5}},
           "n_sites": 3, "initial": {"bits": "001"},
           "evolution": {"kind": "converge"}}
    code, out = run(tmp_path, "evolve", cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] and summary["method"] == "diagonal"
    assert summary["time_reached"] == 2.0


def test_mv_run_refuses_uniformization_too_long_to_stream(tmp_path, capsys):
    cfg = {"n_sites": 6, "initial": {"bits": "110000"},
           "track": "continuous", "phase": "spread", "t": 1e300}
    code, out = run(tmp_path, "mv-run", cfg)
    assert code == 1
    assert "too large to stream" in capsys.readouterr().err
    assert not out.exists()


def test_fates_demo_rejects_short_ring(tmp_path, capsys):
    code, _ = run(tmp_path, "fates-demo", {"bits": "11", "n_seeds": 1})
    assert code == 1
    assert "at least 3 sites" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["11", ""])
def test_fates_demo_rejects_short_ring_with_no_steps(tmp_path, capsys, bits):
    # no step updates the ring, but its size is checked all the same
    code, out = run(tmp_path, "fates-demo", {"bits": bits, "steps": 0})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 3 sites" in err
    assert not out.exists()


def test_classify_with_padding(tmp_path):
    code, out = run(tmp_path, "classify", {"bits": "1011"})
    assert code == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["padded_bits"] == "101101"
    assert s["label"] == 1


@pytest.mark.parametrize("cfg", [{"bits": "1a01"},
                                 {"bits": "1a0101", "pad": False}])
def test_classify_rejects_non_binary_bits(tmp_path, capsys, cfg):
    code, out = run(tmp_path, "classify", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "0/1 string" in err
    assert not out.exists()


def test_ml_cost_published(tmp_path):
    code, out = run(tmp_path, "ml-cost", {"weights": "published"})
    assert code == 0
    s = json.loads((out / "summary.json").read_text())
    assert -9.5 < s["cost"] < -8.0
    mis = [p["bits"] for p in s["per_state"] if p["misclassified"]]
    assert mis == ["11000"]


@pytest.mark.parametrize("item, message", [
    ({"bits": "", "label": 0}, "fewer than 3 sites"),
    ({"bits": "10", "label": 0}, "fewer than 3 sites"),
    ({"bits": "1a0", "label": 0}, "not a 0/1 string"),
    ({"bits": "1011", "label": 2}, "label must be 0 or 1"),
])
def test_ml_cost_rejects_bad_training_set(tmp_path, capsys, item, message):
    cfg = {"weights": "published", "training_set": [item]}
    code, _ = run(tmp_path, "ml-cost", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_ml_opt_runs_single_restart(tmp_path):
    cfg = {"restarts": 1, "start": "published", "seed": 1}
    code, out = run(tmp_path, "ml-opt", cfg)
    assert code == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["cost"] <= -8.4
    assert len(s["weights"]) == 8


def test_fates_demo_fails_to_reach_all_ones(tmp_path):
    cfg = {"bits": "1111100", "p": 0.5, "steps": 200, "n_seeds": 5, "seed": 0}
    code, out = run(tmp_path, "fates-demo", cfg)
    assert code == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["runs_reaching_all_ones"] == 0


def test_selftest_passes(tmp_path, capsys):
    code, out = run(tmp_path, "selftest")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(ln.startswith("PASS") for ln in lines if ln)
    assert json.loads((out / "selftest.json").read_text())["all_ok"]


def test_byte_identical_reruns(tmp_path):
    cfg = {"scan": {"n_values": [6], "n_traj": 40}, "seed": 11}
    code, out = run(tmp_path / "a", "mv-run", cfg)
    assert code == 0
    code, out2 = run(tmp_path / "b", "mv-run", cfg)
    first = (out / "mv_tau.csv").read_bytes()
    second = (out2 / "mv_tau.csv").read_bytes()
    assert first == second
    assert (out / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()


def test_missing_config_file(tmp_path, capsys):
    code = main(["evolve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "config file not found: {path}"),
    (b"{", "config is not valid JSON: Expecting property name enclosed in "
           "double quotes: line 1 column 2 (char 1)"),
    ("directory", "cannot read config {path}: [Errno 21] Is a directory: "
                  "'{path}'"),
    (b"\xff{}", "cannot read config {path}: 'utf-8' codec can't decode "
                "byte 0xff in position 0: invalid start byte"),
], ids=["missing", "not-json", "directory", "not-utf8"])
def test_unreadable_config_is_one_error_line(tmp_path, capsys, content,
                                             message):
    path = tmp_path / "cfg.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    code = main(["evolve", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "out").exists()


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("a file, not a directory\n")
    code, _ = run(tmp_path, "classify", {"bits": "110100"})
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {out / 'summary.json'}: [Errno 17] File "
        f"exists: '{out}'\n")
    assert out.read_text() == "a file, not a directory\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qcadc ")


@pytest.mark.parametrize("command, cfg, where", [
    ("gap-scan", {"models": [{"id": "fuks", "n_values": [4.7]}]},
     "models[].n_values entry"),
    ("gap-scan", {"models": [{"id": "fuks", "n_values": ["four"]}]},
     "models[].n_values entry"),
    ("mv-verify", {"n_values": [6.9]}, "n_values entry"),
    ("mv-run", {"scan": {"n_values": [6], "n_traj": 10.5}}, "scan.n_traj"),
    ("fates-demo", {"bits": "110", "steps": 2.5}, "steps"),
])
def test_fractional_config_counts_are_config_errors(tmp_path, capsys,
                                                    command, cfg, where):
    code, out = run(tmp_path, command, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where} must be a whole number")
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, message", [
    ("classify", {"bits": "010", "pad": False}, "needs at least 6"),
    ("classify", {"bits": "0"}, "'001' have 3 sites"),
    ("mv-verify", {"n_values": [3]}, "multiple of 3 from 6 on"),
    ("mv-run", {"n_sites": 3, "initial": {"bits": "010"},
                "track": "discrete"}, "needs at least 6 sites"),
])
def test_rings_below_six_sites_are_config_errors(tmp_path, capsys, command,
                                                 cfg, message):
    code, out = run(tmp_path, command, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_classification_failure_is_an_error_line(tmp_path, capsys,
                                                 monkeypatch):
    from qcadc import classical

    def fail(bits):
        raise classical.ClassificationFailureError("ring still mixed")

    monkeypatch.setattr(classical, "mv_classify", fail)
    code, out = run(tmp_path, "classify", {"bits": "110100"})
    assert code == 3
    assert capsys.readouterr().err == "error: ring still mixed\n"
    assert not out.exists()


_DISCRETE = {"n_sites": 3, "initial": {"bits": "001"},
             "evolution": {"kind": "discrete", "steps": 2}}


@pytest.mark.parametrize("model, extra, message", [
    ({"id": "fuks", "params": {"pp": 0.2, "junk": 1}}, {"extra": 3},
     "unknown key model"),
    ({"id": "fates"}, {}, "missing key model.params.p"),
    ({"id": "fuks", "params": {"p": "x"}}, {},
     "model.params.p must be a number"),
], ids=["unknown-keys", "fates-without-p", "non-numeric-p"])
def test_discrete_evolve_checks_its_model(tmp_path, capsys, model, extra,
                                          message):
    code, out = run(tmp_path, "evolve",
                    {**_DISCRETE, "model": {**model, **extra}})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("evolution, used, ignored", [
    ({"kind": "continuous", "t": 2.0}, {"gamma": 0.5}, {"p": 0.3}),
    ({"kind": "continuous", "t": 2.0}, {"gamma": 0.5}, {"p": 0.9}),
    ({"kind": "discrete", "steps": 2}, {"p": 0.2}, {"gamma": 2.0}),
    ({"kind": "discrete", "steps": 2}, {"p": 0.2}, {"gamma": -2.0}),
], ids=["continuous-p", "continuous-p-out-of-range", "discrete-gamma",
        "discrete-gamma-out-of-range"])
def test_evolve_names_the_fuks_parameter_it_ignores(tmp_path, capsys,
                                                    evolution, used, ignored):
    cfg = {"n_sites": 3, "initial": {"bits": "001"}, "evolution": evolution}
    code, bare = run(tmp_path / "bare", "evolve",
                     {**cfg, "model": {"id": "fuks", "params": used}})
    assert code == 0
    assert capsys.readouterr().err == ""
    code, extra = run(tmp_path / "extra", "evolve", {
        **cfg, "model": {"id": "fuks", "params": {**used, **ignored}}})
    assert code == 0
    [key], [read] = ignored, used
    assert capsys.readouterr().err == (
        f"note: model.params.{key} is ignored: a {evolution['kind']} fuks "
        f"run reads only {read}\n")
    assert ((bare / "trajectory.csv").read_bytes()
            == (extra / "trajectory.csv").read_bytes())
    summaries = [json.loads((out / "summary.json").read_text())
                 for out in (bare, extra)]
    for summary in summaries:
        del summary["config_hash"]
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("command, cfg", [
    ("fates-demo", {"bits": "1101100", "steps": 2, "n_seeds": 1}),
    ("mv-run", {"n_sites": 6, "initial": {"bits": "110100"},
                "track": "continuous", "t": 1.0, "n_traj": 1}),
    ("ml-opt", {"restarts": 1}),
    ("selftest", {}),
])
def test_fractional_seeds_are_config_errors(tmp_path, capsys, command, cfg):
    code, out = run(tmp_path, command, {**cfg, "seed": 1.7})
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: seed must be a whole number, got 1.7")
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, message", [
    ("ml-cost", {"weights": [0, 1, 0]}, "expected 8 weights"),
    ("ml-cost", {"weights": [0.1, 1, 0, 0, 0, 0, 0, 0]}, "w1 and w8"),
    ("ml-cost", {"weights": "publishd"}, 'must be "published" or a list'),
    ("fates-demo", {"bits": "1101100", "p": "x"}, "p must be a number"),
    ("mv-run", {"scan": {"n_values": [2]}}, "run on 3 to 63 sites"),
    ("mv-run", {"scan": {"n_values": [66]}}, "run on 3 to 63 sites"),
    ("mv-run", {"n_sites": 6, "initial": {"bits": "110100"},
                "track": "continuous", "t": "abc"}, "t must be a number"),
    *[("evolve", {**_DISCRETE, "model": {"id": "fuks"}, "n_sites": n,
                  "initial": {"bits": "0" * n}},
       "n_sites must lie in 1 to 20: each sample is read through the 2^N "
       "diagonal") for n in (21, 30)],
    # refused before the file is read: it does not exist
    ("evolve", {**_DISCRETE, "model": {"id": "fuks"}, "n_sites": 15,
                "initial": {"file": "no-such-file.npy"}},
     "initial.file holds all 4^N amplitudes of a state, which fit in "
     "memory for 1 to 14 sites; n_sites=15"),
    *[("evolve", {**_DISCRETE, "evolution": {"kind": "continuous", "t": 1.0},
                  "model": {"id": "fuks", "params": {"p": 0.3,
                                                     "gamma": gamma}}},
       "gamma must be positive") for gamma in (0.0, -2.0)],
    ("evolve", {**_DISCRETE, "model": {"id": "fuks", "params": {"p": 0.9}}},
     "p must lie in (0, 0.5]"),
    ("ml-opt", {"restarts": 1, "start": "publshed"},
     'start must be "published"'),
], ids=["ml-cost-3-weights", "ml-cost-w1", "ml-cost-misspelt",
        "fates-demo-p", "mv-scan-2", "mv-scan-66", "mv-run-t",
        "evolve-21-sites", "evolve-30-sites", "evolve-file-15-sites",
        "continuous-fuks-gamma-0",
        "continuous-fuks-gamma-negative", "discrete-fuks-p-0.9",
        "ml-opt-start-misspelt"])
def test_bad_config_values_are_config_errors(tmp_path, capsys, command, cfg,
                                             message):
    code, out = run(tmp_path, command, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    ({"models": [{"id": "fuks", "n_values": [2, 4]}]}, "need at least 3"),
    ({"models": [{"id": "fuks", "n_values": [4, 9]}]},
     "entry 9: dense mode is capped"),
    ({"models": [{"id": "fuks", "n_values": [3, 4]}], "mode": "foo"},
     "unknown mode 'foo'"),
    ({"models": [{"id": "dephasing", "params": {"omega": 0.0},
                  "n_values": [3]},
                 {"id": "dephasing", "params": {"omega": 1.0},
                  "n_values": [3]}]},
     "models[].id 'dephasing' appears twice"),
], ids=["refused-size", "above-dense-cap", "unknown-mode", "repeated-id"])
def test_gap_scan_refuses_sizes_and_modes_up_front(tmp_path, capsys, cfg,
                                                    message):
    code, out = run(tmp_path, "gap-scan", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_gap_scan_exits_3_naming_the_sizes_that_fail(tmp_path, capsys,
                                                     monkeypatch):
    from qcadc import spectra
    spectrum = spectra.spectrum

    def fail_at_4(spec, **kwargs):
        if spec.n_sites == 4:
            raise spectra.SpectrumError("no convergence")
        return spectrum(spec, **kwargs)

    monkeypatch.setattr(spectra, "spectrum", fail_at_4)
    code, out = run(tmp_path, "gap-scan",
                    {"models": [{"id": "fuks", "n_values": [3, 4]}]})
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: no spectrum for fuks N=4\n")
    _, rows = read_csv(out / "gaps.csv")
    assert rows[1][:3] == ["fuks", "4", "nan"]


def test_gap_scan_notes_spectrum_warnings_on_stderr(tmp_path, capsys,
                                                     monkeypatch):
    import dataclasses
    from qcadc import spectra
    cfg = {"models": [{"id": "fuks", "n_values": [3, 4]},
                      {"id": "dephasing", "n_values": [4]}]}
    code, plain = run(tmp_path / "plain", "gap-scan", cfg)
    assert code == 0 and capsys.readouterr().err == ""
    spectrum = spectra.spectrum

    def warn_at_4(spec, **kwargs):
        rep = spectrum(spec, **kwargs)
        if spec.n_sites != 4:
            return rep
        return dataclasses.replace(rep, warnings=("first", "second"))

    monkeypatch.setattr(spectra, "spectrum", warn_at_4)
    code, out = run(tmp_path / "warned", "gap-scan", cfg)
    assert code == 0
    assert capsys.readouterr().err == (
        "note: fuks N=4: first\nnote: fuks N=4: second\n"
        "note: dephasing N=4: first\nnote: dephasing N=4: second\n")
    # the notes change no output file
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in plain.iterdir())
    for path in plain.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes()


_MV_DISCRETE = {"n_sites": 6, "initial": {"bits": "110100"},
                "track": "discrete"}
_MV_SPREAD = {**_DISCRETE, "model": {"id": "mv-spread"}}
_FUKS_FIT = {"id": "fuks", "n_values": [3, 4, 5]}


@pytest.mark.parametrize("command, cfg, extra, key", [
    ("mv-run", {"scan": {"n_values": [6]}, "n_sites": 9, "track": "discrete",
                "n_traj": 5, "t": 1.0}, (), "n_sites"),
    ("mv-run", {**_MV_DISCRETE, "sublayers": 3}, (), "sublayers"),
    ("mv-run", {"scan": {"n_values": [6]}, "sublayers": 3}, (), "sublayers"),
    ("mv-run", {**_MV_DISCRETE, "t": 1.0}, (), "t"),
    ("mv-run", {**_MV_DISCRETE, "n_traj": 5}, (), "n_traj"),
    ("mv-run", {**_MV_DISCRETE, "phase": "spread"}, (), "phase"),
    ("evolve", {**_MV_SPREAD, "evolution": {**_DISCRETE["evolution"],
                                            "t": 1.0}}, (), "evolution.t"),
    ("evolve", {**_MV_SPREAD, "evolution": {**_DISCRETE["evolution"],
                                            "tol": 1e-6}}, (),
     "evolution.tol"),
    ("evolve", {**_MV_SPREAD, "samples": 4}, (), "samples"),
    ("evolve", {**_MV_SPREAD, "model": {"id": "fuks"}, "samples": 0,
                "evolution": {"kind": "continuous", "t": 1.0}}, (),
     "samples"),
    ("evolve", {**_MV_SPREAD, "model": {"id": "fuks"},
                "evolution": {"kind": "continuous", "t": 1.0}},
     ("--method", "auto"), "--method"),
    ("bogus", None, (), "invalid choice: 'bogus'"),
    ("mv-verify", {"n_values": "69"}, (), "n_values"),
    ("fates-demo", {"bits": 5}, (), "bits"),
    ("fates-demo", {"bits": "1101100", "n_seeds": 0}, (), "n_seeds"),
    ("fates-demo", {"bits": "1101100", "steps": -1}, (), "steps"),
    ("ml-opt", {"restarts": 0}, (), "restarts"),
    ("gap-scan", {"models": [{**_FUKS_FIT, "fit_exclude": 5}]}, (),
     "fit_exclude"),
    ("gap-scan", {"models": [{**_FUKS_FIT, "fit_exclude": "3"}]}, (),
     "fit_exclude"),
    ("selftest", {"foo": 1}, (), "foo"),
    ("evolve", {**_MV_SPREAD, "model": {"id": "fuks"}, "n_sites": True,
                "initial": {"bits": "1"}}, (), "n_sites"),
    ("mv-run", {"n_sites": True, "initial": {"bits": "1"},
                "track": "continuous"}, (), "n_sites"),
], ids=["mv-scan-single-run-keys", "mv-single-sublayers", "mv-scan-sublayers",
        "mv-discrete-t", "mv-discrete-n_traj", "mv-discrete-phase",
        "discrete-evolve-t", "discrete-evolve-tol", "discrete-evolve-samples",
        "evolve-no-samples", "evolve-method", "unknown-command",
        "mv-verify-string", "fates-demo-int-bits", "fates-demo-no-seeds",
        "fates-demo-negative-steps", "ml-opt-no-restarts",
        "gap-scan-fit-exclude-int", "gap-scan-fit-exclude-string",
        "selftest-unknown-key", "evolve-n_sites-true", "mv-run-n_sites-true"])
def test_each_run_form_refuses_what_it_does_not_read(tmp_path, capsys, command,
                                                     cfg, extra, key):
    # one table per run form: a key the form does not read, a value outside
    # its reader's bounds, or a command or flag the CLI does not know ends
    # in one error line that names it, before any output
    code, out = run(tmp_path, command, cfg, extra)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err
    assert not out.exists()


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the benchmark's command builder, run from its source (nothing is written
# under perfbench/)
_WORKLOADS = runpy.run_path(str(_PERFBENCH / "workloads.py"))


@pytest.mark.parametrize("workload", sorted(_WORKLOADS["WORKLOADS"]))
def test_benchmark_configs_are_accepted(tmp_path, workload):
    # every benchmark run enters through cli.main with --seed, so a config
    # the tables refused would fail every run of its workload
    for cmd in _WORKLOADS["build"](workload, 1, tiny=True).commands:
        code, _ = run(tmp_path / cmd.name, cmd.subcommand, cmd.config,
                      ("--seed", "1"))
        assert code == 0, cmd.name


def run_probe(probe: str) -> str:
    """stdout of ``probe`` run in a fresh interpreter that imports qcadc
    from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_neither_scipy_optimize_nor_special():
    # both cost a command 40-150 ms of start-up for one call each
    assert run_probe(
        "import sys, qcadc, qcadc.cli\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.special')\n"
        "             if m in sys.modules))\n") == "[]\n"


def test_benchmark_tracer_finds_every_name_it_patches():
    # the per-layer benchmark wraps package functions by name; a name that
    # a refactor drops would fail every traced benchmark run
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    assert run_probe(
        f"import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        f"import tracer\n"
        f"t = tracer.Tracer()\n"
        f"tracer.install(t)\n"
        f"print(t.missing)\n") == "[]\n"
