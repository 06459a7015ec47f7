import csv
import ctypes
import dataclasses
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from importlib import metadata
from pathlib import Path

import pytest

import qadmit
from qadmit import cli
from qadmit.analytic import online_scaling_table
from qadmit.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    RunConfig,
    _fan_out,
    _pool_size,
    config_from_mapping,
    conservation_sweep,
    main,
    phase_sweep,
)
from qadmit.errors import ConfigurationError
from qadmit.sim import run_simulation
from qadmit.stream import ModelParams, generate_stream, replication_seed


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return path


MINIMAL_SIM = dict(
    kind="simulate", p=0.5, lambdas=[0.9], policy="threshold:auto",
    horizon=2000.0, seeds=1, master_seed=3,
)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_minimal_simulate_writes_one_summary(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "out"), **MINIMAL_SIM)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    summaries = sorted(out.glob("run_*.json"))
    assert len(summaries) == 1
    payload = json.loads(summaries[0].read_text())
    assert set(payload) == {
        "lambda", "p", "window", "policy", "seed", "n_events", "mean_queue_event",
        "mean_queue_time", "diversion_rate", "wasted_rate", "q0",
    }
    assert payload["policy"] == "threshold:auto"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 3
    assert manifest["config"]["p"] == 0.5
    assert "version" in manifest


def test_missing_field_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, kind="simulate", lambdas=[0.9])
    assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert "`p`" in err["error"]


def test_unknown_kind_rejected():
    # main takes the kind from its subcommand, so the mapping is where a kind can be unknown
    with pytest.raises(ConfigurationError, match="unknown experiment kind"):
        config_from_mapping(dict(kind="explore", p=0.5, lambdas=[0.9]))


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == EXIT_PARSE
    assert "parse" in json.loads(capsys.readouterr().err.strip())["error"]


def test_missing_file_is_parse_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == EXIT_PARSE


def test_undecodable_config_is_parse_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["simulate", "--config", str(path)]) == EXIT_PARSE
    assert "parse" in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("content", ["[1, 2]", "5", '"simulate"'])
def test_non_object_config_is_parse_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_text(content)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path)]) == EXIT_PARSE
    assert main(["simulate", "--config", str(path), "--p", "0.5", "--lambdas", "0.9",
                 "--out", str(out)]) == EXIT_PARSE
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()
              if line.startswith("{")]
    assert [e["exit"] for e in errors] == [EXIT_PARSE, EXIT_PARSE]
    assert all("must be a JSON object" in e["error"] for e in errors)
    assert not out.exists()


def test_manifest_version_spawns_no_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_config started a process")

    monkeypatch.setattr(subprocess, "run", refuse)
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "out"), workers=1, **MINIMAL_SIM)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["version"] == f"qadmit {qadmit.__version__}"
    try:
        installed = metadata.version("qadmit")
    except metadata.PackageNotFoundError:
        return
    assert installed == qadmit.__version__


def test_import_loads_numpy_random_but_no_cli_only_modules(tmp_path):
    # a fresh interpreter, since pytest itself has loaded argparse, logging and the rest;
    # numpy.random is loaded at import so that forked sweep workers inherit it, and a
    # pooled sweep forks them without concurrent.futures or multiprocessing
    src = str(Path(__file__).resolve().parents[1] / "src")
    sweep = dict(kind="phase", p=0.5, lambdas=[0.875, 0.9375], horizon=200.0, seeds=2,
                 workers=2, out_dir=str(tmp_path / "out"))
    modules = ("numpy.random", "importlib.metadata", "argparse", "email",
               "concurrent.futures", "multiprocessing", "logging")
    code = (f"import sys; sys.path.insert(0, {src!r}); import qadmit.cli as cli; "
            f"assert cli.run_config(cli.config_from_mapping({sweep!r})) == 0; "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['numpy.random']"
    assert (tmp_path / "out" / "phase.csv").is_file()


def _physical_memory(n_bytes):
    return lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": n_bytes // 4096}[name]


_one_gib = _physical_memory(2**30)


def test_sweep_over_physical_memory_rejected_before_any_file(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--p", "0.5", "--lambdas", "0.9", "--horizon", "1e13", "--out", str(out)]
    assert main(["phase", *args]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert "physical memory" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["simulate", "phase", "conserve"])
def test_sweep_memory_estimate_against_one_gib(monkeypatch, kind):
    monkeypatch.setattr(os, "sysconf", _one_gib)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # a pool of 8 needs 8 CPUs
    base = dict(kind=kind, p=0.5, lambdas=[1 - 2**-5])
    with pytest.raises(ConfigurationError, match="physical memory"):
        config_from_mapping(base | {"horizon": 1e8})
    config_from_mapping(base | {"horizon": 1e5})
    # ~141 MB a cell: eight at once do not fit, one at a time does
    with pytest.raises(ConfigurationError, match="8 cells"):
        config_from_mapping(base | {"horizon": 2e6, "workers": 8})
    config_from_mapping(base | {"horizon": 2e6, "workers": 1})


def test_sweep_memory_counts_the_parent_bytes_per_seed(monkeypatch):
    # 10**12 (cell, seed) tasks would be built and kept by the parent, whatever
    # the streams: rejected by validation alone, never run
    huge = dict(kind="phase", p=0.5, lambdas=[0.9], horizon=10.0, seeds=10**12)
    with pytest.raises(ConfigurationError, match="`seeds`"):
        config_from_mapping(huge)
    monkeypatch.setattr(os, "sysconf", _one_gib)
    with pytest.raises(ConfigurationError, match="`seeds`"):
        config_from_mapping(huge)
    # ~1.3 GB of parent rows at 10**6 seeds, ~128 MB at 10**5
    with pytest.raises(ConfigurationError, match="physical memory"):
        config_from_mapping(huge | {"seeds": 10**6, "workers": 1})
    config_from_mapping(huge | {"seeds": 10**5, "workers": 1})


def test_parent_bytes_per_task_bound_a_conserve_sweep(tmp_path):
    cfg = config_from_mapping(dict(kind="conserve", p=0.5, lambdas=[0.9], c_values=[0.0],
                                   horizon=2.0, seeds=1500, workers=2,
                                   out_dir=str(tmp_path)))
    plan = cli.validate_config(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli.RUNNERS["conserve"](cfg, tmp_path, plan)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / cfg.seeds <= cli.PARENT_BYTES_PER_TASK


@pytest.mark.parametrize("trajectory_csv", [False, True])
@pytest.mark.parametrize("policy, window", [("threshold:auto", 0.0),
                                            ("windowed-drain", 8 * math.log(32))])
def test_simulate_cell_peak_within_the_memory_rule(tmp_path, policy, window, trajectory_csv):
    # the rule's bytes per expected event hold for a whole cell, the
    # trajectory CSV included; its rows are listed one block at a time
    lam = 1 - 2**-5
    cell = {"lambda": lam, "p": 0.5, "window": window, "policy": policy}
    trajectory_dir = tmp_path if trajectory_csv else None
    cfg = RunConfig(kind="simulate", p=0.5, lambdas=(lam,), horizon=1e5, master_seed=3)
    cli._simulate_cell((dataclasses.replace(cfg, horizon=100.0), 0, 0, cell,
                        trajectory_dir))  # warm caches
    tracemalloc.start()
    try:
        cli._simulate_cell((cfg, 0, 0, cell, trajectory_dir))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    events = (lam + 0.5) * (cfg.horizon + window)
    assert peak / events <= cli.PEAK_BYTES_PER_EVENT


# Events of each Monte Carlo task below: the rule matters only for runs this
# long or longer.  Windowed-drain's 2**15-event block arrays cost ~2 MB whatever
# the stream, so shorter runs read more per event (a pilot of horizon 5e4 + W:
# ~63; a diagnostic sample at the default warm-up of 1e5 events: ~52) while
# needing only a few MB.
_MC_EVENTS = 2e5


@pytest.mark.parametrize("task", ["excursion", "diagnostic-threshold:auto",
                                  "diagnostic-windowed-drain", "pilot-run"])
def test_monte_carlo_peak_within_the_memory_rule(task):
    # a run holds one such task at a time; n is the events validate_config counts
    from qadmit import excursion

    window = 8 * math.log(32)
    params = ModelParams(1 - 2**-5, 0.5, window)
    rate = params.total_rate
    config = excursion.ExcursionConfig(params, k=1.0, epsilon=0.05, zeta=1.0, phi=1.0, q_ref=2.0)

    def run(n):
        if task == "excursion":  # a base path of n events: 3 W, then the deadline
            longer = dataclasses.replace(config, phi=n / rate / window - 3.0)
            next(excursion._sampled_events(longer, 1, seed=3))
        elif task == "pilot-run":
            excursion.reference_queue(params, "windowed-drain", seed=3,
                                      pilot_horizon=n / rate - window)
        else:
            warmup = n / rate - config.horizon_needed - window
            excursion.diversion_idling_diagnostic(config, task.removeprefix("diagnostic-"), 1,
                                                  seed=3, warmup_time=warmup)

    run(_MC_EVENTS / 100)  # warm caches
    tracemalloc.start()
    try:
        run(_MC_EVENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / _MC_EVENTS <= cli.PEAK_BYTES_PER_EVENT


def test_monte_carlo_memory_estimate_against_one_gib(monkeypatch):
    monkeypatch.setattr(os, "sysconf", _one_gib)
    # ~2.8e9 events in each sample's base path
    with pytest.raises(ConfigurationError, match="physical memory"):
        config_from_mapping(EXCURSION_BASE | {"phi": 1e9})
    # a warm-up of 100 W = 1e8 before each base path: ~1.5e8 events
    diagnostic = dict(kind="diagnostic", p=0.5, lambdas=[0.9], window_rule="constant:1e6")
    with pytest.raises(ConfigurationError, match="physical memory"):
        config_from_mapping(diagnostic)
    config_from_mapping(diagnostic | {"window_rule": "constant:1e4"})


def test_monte_carlo_memory_counts_the_pilot_run(monkeypatch):
    # 2 MiB: an 11-event base path fits, the 70000-event pilot run (~3.4 MB)
    # does not (a diagnostic's warm-up alone is longer than the pilot run)
    monkeypatch.setattr(os, "sysconf", _physical_memory(2**21))
    drain = EXCURSION_BASE | {"policy": "windowed-drain"}
    config_from_mapping(drain)
    config_from_mapping(EXCURSION_BASE | {"q_ref": None})  # the birth-death oracle
    with pytest.raises(ConfigurationError, match="physical memory"):
        config_from_mapping(drain | {"q_ref": None})


def test_pool_size_at_most_one_worker_per_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = RunConfig(kind="phase", p=0.5, lambdas=(0.9,), workers=10**6)
    assert _pool_size(cfg, 10**6) == 2
    assert _pool_size(cfg, 1) == 1
    assert _pool_size(dataclasses.replace(cfg, workers=None), 10**6) == 2


def test_n_samples_within_the_sample_key_range():
    # sample i is seeded by a uint32 index, so 2**32 samples is the most there can be
    for kind in ("excursion", "diagnostic"):
        base = EXCURSION_BASE | {"kind": kind}
        config_from_mapping(base | {"n_samples": 2**32})
        with pytest.raises(ConfigurationError, match="n_samples"):
            config_from_mapping(base | {"n_samples": 2**32 + 1})


def test_sweep_memory_unchecked_without_sysconf(monkeypatch):
    monkeypatch.delattr(os, "sysconf")
    config_from_mapping(dict(kind="phase", p=0.5, lambdas=[0.9], horizon=1e13))


def test_validation_catches_bad_values():
    with pytest.raises(ConfigurationError):
        config_from_mapping(dict(kind="simulate", p=1.5, lambdas=[0.9]))
    with pytest.raises(ConfigurationError):
        config_from_mapping(dict(kind="simulate", p=0.5, lambdas=[]))
    with pytest.raises(ConfigurationError):
        config_from_mapping(dict(kind="simulate", p=0.5, lambdas=[0.3]))
    with pytest.raises(ConfigurationError):
        config_from_mapping(dict(kind="simulate", p=0.5, lambdas=[0.9], window_rule="cubic:2"))
    with pytest.raises(ConfigurationError):
        config_from_mapping(dict(kind="simulate", p=0.5, lambdas=[0.9], typo=1))


@pytest.mark.parametrize("flags, name", [
    (["--seeds", "0"], "`seeds`"),
    (["--horizon", "0"], "`horizon`"),
    (["--horizon=-1"], "`horizon`"),
    (["--burn-in", "1.0"], "`burn_in`"),
    (["--burn-in=-0.1"], "`burn_in`"),
    (["--q0=-1"], "`q0`"),
    (["--workers", "0"], "`workers`"),  # else it would mean one worker per CPU
    (["--c-values=1,-1"], "`c_values`"),
    (["--lambdas", "0.3,0.5"], "`lambdas`"),  # none above 1 - p
    (["--window-rule", "constant:abc"], "window rule"),
    (["--seeds", str(10**12)], "`seeds`"),  # the parent's rows would not fit
])
def test_out_of_range_field_exits_before_the_manifest(tmp_path, capsys, flags, name):
    out = tmp_path / "out"
    base = ["--p", "0.5", "--lambdas", "0.9", "--horizon", "100", "--out", str(out)]
    assert main(["phase", *base, *flags]) == EXIT_VALIDATION
    assert name in json.loads(capsys.readouterr().err.strip())["error"]
    assert not (out / "manifest.json").exists()


def test_q0_past_2_to_62_exits_before_the_manifest(tmp_path, capsys):
    # an int64 queue path holds q0 plus the events of any stream the memory rule admits
    out = tmp_path / "out"
    args = ["--p", "0.5", "--lambdas", "0.9", "--horizon", "100", "--seeds", "1",
            "--out", str(out)]
    assert main(["simulate", *args, "--q0", str(10**30)]) == EXIT_VALIDATION
    assert "`q0`" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not (out / "manifest.json").exists()
    assert config_from_mapping(dict(kind="simulate", p=0.5, lambdas=[0.9], q0=2**62)).q0 == 2**62


@pytest.mark.parametrize("kind, field", [
    ("simulate", "horizon"), ("conserve", "c_values"), ("excursion", "k"),
    ("excursion", "zeta"), ("excursion", "phi"), ("diagnostic", "q_ref"),
])
def test_integer_past_float_range_exits_before_the_manifest(tmp_path, capsys, kind, field):
    value = "1" + "0" * 400  # a JSON integer that no float holds
    if field == "c_values":
        value = f"[0, {value}]"
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(f'{{"p": 0.5, "lambdas": [0.9], "window_rule": "constant:2", '
                      f'"{field}": {value}}}')
    assert main([kind, "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert f"`{field}`" in err["error"]
    assert not (out / "manifest.json").exists()


def test_largest_float_as_an_integer_still_passes():
    top = int(sys.float_info.max)
    cfg = config_from_mapping(dict(kind="analytic", p=0.5, lambdas=[0.9], horizon=top, k=top))
    assert cfg.horizon == top and cfg.k == top


def test_conserve_defaults_to_auto_policy():
    cfg = config_from_mapping(dict(kind="conserve", p=0.5, lambdas=[0.875]))
    assert cfg.policy == "auto"
    cfg = config_from_mapping(
        dict(kind="conserve", p=0.5, lambdas=[0.875], policy="admit-all")
    )
    assert cfg.policy == "admit-all"
    cfg = config_from_mapping(dict(kind="simulate", p=0.5, lambdas=[0.875]))
    assert cfg.policy == "threshold:auto"


@pytest.mark.parametrize("window_rule, window, policy, q0", [
    ("constant:3", 3.0, "windowed-drain", 1),
    ("zero", 0.0, "threshold:x=2", 6),  # q0 above the threshold
])
def test_simulate_trajectory_csv_matches_direct_run(tmp_path, monkeypatch, window_rule, window,
                                                   policy, q0):
    from qadmit.cli import run_config

    base = dict(
        kind="simulate", p=0.5, lambdas=(0.875, 0.9), window_rule=window_rule, policy=policy,
        horizon=300.0, seeds=2, master_seed=13, q0=q0, trajectory_csv=True,
    )
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run_config(RunConfig(**base, workers=1, out_dir=str(out1))) == EXIT_OK
    # ~440 rows: one block above, seven of 64 (the last one short) here
    monkeypatch.setattr(cli, "_TRAJECTORY_BLOCK", 64)
    assert run_config(RunConfig(**base, workers=2, out_dir=str(out2))) == EXIT_OK
    for li, lam in enumerate(base["lambdas"]):
        for rep in range(2):
            name = f"trajectory_lam{li}_seed{rep}.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
            stream = generate_stream(
                ModelParams(lam, 0.5, window), 300.0 + window, replication_seed(13, li, rep)
            )
            traj, trace, m = run_simulation(stream, policy, q0=q0, t_end=300.0)
            n = m.n_events
            rows = read_rows(out1 / name)
            assert [int(r["n"]) for r in rows] == list(range(1, n + 1))
            assert [float(r["time"]) for r in rows] == stream.times[:n].tolist()
            assert [int(r["mark"]) for r in rows] == stream.marks[:n].tolist()
            assert [int(r["H"]) for r in rows] == trace.decisions.tolist()
            assert [int(r["Q_pre"]) for r in rows] == traj.pre_event_queue.tolist()
            assert [int(r["Q_post"]) for r in rows] == traj.post_event_queue.tolist()
            assert int(rows[0]["Q_pre"]) == q0
            # the summary comes from the same run as the trajectory
            summary = json.loads((out1 / f"run_lam{li}_seed{rep}.json").read_text())
            assert summary["n_events"] == n
            assert summary["mean_queue_event"] == m.mean_queue_event


def test_window_rules():
    base = dict(kind="phase", p=0.5, lambdas=[0.875], seeds=1, horizon=500.0)
    for rule, expected in (("zero", 0.0), ("constant:3.5", 3.5), ("log:8", 8 * math.log(8))):
        cfg = config_from_mapping(base | {"window_rule": rule})
        rows = phase_sweep(cfg)
        assert rows[0]["window"] == pytest.approx(expected)


def test_phase_sweep_rows_and_aggregates():
    cfg = RunConfig(
        kind="phase", p=0.5, lambdas=(0.875, 0.9375), window_rule="zero",
        policy="threshold:auto", horizon=2000.0, seeds=3, master_seed=5, workers=1,
    )
    rows = phase_sweep(cfg)
    per_seed = [r for r in rows if r["aggregate_flag"] == 0]
    aggs = [r for r in rows if r["aggregate_flag"] == 1]
    assert len(per_seed) == 6 and len(aggs) == 2
    for agg in aggs:
        cell = [r for r in per_seed if r["lambda"] == agg["lambda"]]
        mean = sum(r["mean_queue_event"] for r in cell) / len(cell)
        assert agg["mean_queue_event"] == pytest.approx(mean)
        assert agg["ci_halfwidth"] > 0


@pytest.mark.parametrize("base", [
    dict(kind="phase", p=0.5, lambdas=(0.875, 0.9375), window_rule="log:2",
         policy="windowed-drain", horizon=1500.0, seeds=2, master_seed=9),
    # threshold cells of ~3e4 events, whose arrays (~224 KB) pass glibc's
    # default 128-KiB mmap threshold, which forked workers raise
    dict(kind="phase", p=0.5, lambdas=(0.875, 0.9375, 0.96875), policy="threshold:auto",
         horizon=20000.0, seeds=4),
], ids=["windowed-drain", "threshold-long"])
def test_phase_sweep_worker_count_invariance(tmp_path, base):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    cfg1 = RunConfig(**base, workers=1, out_dir=str(out1))
    cfg2 = RunConfig(**base, workers=2, out_dir=str(out2))
    from qadmit.cli import run_config

    assert run_config(cfg1) == EXIT_OK
    assert run_config(cfg2) == EXIT_OK
    assert (out1 / "phase.csv").read_bytes() == (out2 / "phase.csv").read_bytes()


@pytest.mark.parametrize("base, seeds, patterns, n_files", [
    (dict(kind="simulate", lambdas=(0.875, 0.9), window_rule="constant:2",
          policy="windowed-drain", trajectory_csv=True),
     2, ("run_*.json", "trajectory_*.csv"), 8),
    (dict(kind="conserve", lambdas=(0.875, 0.9375), c_values=(0.0, 1.0), policy="auto"),
     2, ("conserve.csv",), 1),
    # 9 tasks: one worker runs 5, the other 4
    (dict(kind="simulate", lambdas=(0.875, 0.9, 0.9375), window_rule="constant:2",
          policy="windowed-drain", trajectory_csv=True),
     3, ("run_*.json", "trajectory_*.csv"), 18),
    (dict(kind="conserve", lambdas=(0.875,), c_values=(0.0, 1.0, 2.0), policy="auto"),
     3, ("conserve.csv",), 1),
], ids=["simulate", "conserve", "simulate-uneven", "conserve-uneven"])
def test_pooled_kinds_worker_count_invariance(tmp_path, base, seeds, patterns, n_files):
    from qadmit.cli import run_config

    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        cfg = RunConfig(**base, p=0.5, horizon=800.0, seeds=seeds, master_seed=4,
                        workers=workers, out_dir=str(out))
        assert run_config(cfg) == EXIT_OK
        outputs.append({f.name: f.read_bytes()
                        for pattern in patterns for f in sorted(out.glob(pattern))})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == n_files


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square(task):
    return {"task": task, "square": task * task}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fan_out_keeps_task_order(workers):
    for n_tasks in range(1, 8):  # fewer, as many and more tasks than workers
        tasks = list(range(10, 10 + n_tasks))
        assert _fan_out(_square, tasks, workers) == [_square(t) for t in tasks]
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fan_out_runs_no_task_in_the_calling_process():
    pids = _fan_out(lambda task: os.getpid(), list(range(5)), 2)
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert pids[0::2] == [pids[0]] * 3 and pids[1::2] == [pids[1]] * 2
    _assert_no_child_left()


def test_fan_out_runs_serially_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert _fan_out(lambda task: (task, os.getpid()), [0, 1, 2], 2) == [
        (task, os.getpid()) for task in (0, 1, 2)]


_ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@pytest.mark.skipif(not hasattr(os, "fork") or len(_ALLOWED_CPUS) < 2,
                    reason="needs os.fork and 2 allowed CPUs")
def test_fan_out_pins_worker_k_to_the_kth_allowed_cpu():
    c0, c1 = _ALLOWED_CPUS[:2]
    before = os.sched_getaffinity(0)
    assert _fan_out(lambda task: os.sched_getaffinity(0), range(4), 2) == [{c0}, {c1}, {c0}, {c1}]
    assert os.sched_getaffinity(0) == before
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("how", ["missing", "refused"])
def test_fan_out_runs_unpinned_where_affinity_cannot_be_set(monkeypatch, how):
    if how == "missing":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        def refuse(pid, cpus):
            raise PermissionError("not allowed")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    assert _fan_out(_square, list(range(5)), 2) == [_square(t) for t in range(5)]
    if _ALLOWED_CPUS:
        assert _fan_out(lambda task: sorted(os.sched_getaffinity(0)), [0, 1], 2) == [
            _ALLOWED_CPUS] * 2
    _assert_no_child_left()


def _libc_has(name):
    try:
        getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError, TypeError):
        return False
    return True


_needs_fork_and_mallopt = pytest.mark.skipif(
    not (hasattr(os, "fork") and _libc_has("mallopt")), reason="needs os.fork and libc's mallopt")


# each task is a horizon-1e5 threshold:auto cell; it returns its own minor
# page faults and then the bytes malloc holds from the kernel, heap and
# mmapped blocks (glibc's mallinfo2)
_FAULTS_PER_TASK = """
import ctypes, json, resource, sys
sys.path.insert(0, sys.argv[1])
from qadmit.cli import _fan_out
from qadmit.sim import run_simulation
from qadmit.stream import ModelParams, generate_stream, replication_seed

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2

def one_cell(i):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_simulation(generate_stream(ModelParams(0.96875, 0.5), 1e5, replication_seed(3, i)),
                   "threshold:auto")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    info = mallinfo2()
    return faults, info.arena + info.hblkhd

print(json.dumps(_fan_out(one_cell, list(range(10)), 2)))
"""


@_needs_fork_and_mallopt
@pytest.mark.skipif(not _libc_has("mallinfo2"), reason="needs glibc's mallinfo2 (2.33 or later)")
def test_fan_out_workers_reuse_the_memory_their_tasks_free():
    # glibc's defaults unmap every freed array of 128 KiB or more, so each
    # task faulted in its ~3 MB again: ~800 faults against the first's ~1600.
    # A fresh interpreter, since glibc raises that threshold as a process
    # frees larger blocks, and pytest's process has freed many
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_TASK, src],
                         capture_output=True, text=True, check=True)
    results = json.loads(out.stdout)
    for k in range(2):  # worker k ran tasks k, k + 2, ...
        faults, held = zip(*results[k::2])
        assert all(f < 0.1 * faults[0] for f in faults[1:]), faults
        # nor take a twentieth of that from the kernel anew. A later task's
        # arrays need not fit the holes the first one left, so the heap may
        # grow by ~150 KB, about one int8 array of the stream; the peak RSS is
        # read in per-CPU batches of 32 or more pages, too coarse to show that
        assert max(held[1:]) - held[0] < 0.05 * faults[0] * os.sysconf("SC_PAGE_SIZE"), held


@_needs_fork_and_mallopt
def test_only_a_forked_worker_keeps_freed_memory(monkeypatch):
    def refuse():
        raise AssertionError("the allocator was set")

    monkeypatch.setattr(cli, "_keep_freed_memory", refuse)
    assert _fan_out(_square, [0, 1, 2], 1) == [_square(t) for t in (0, 1, 2)]
    with pytest.raises(RuntimeError, match="worker 0 died"):  # a worker does call it
        _fan_out(_square, [0, 1, 2], 2)
    _assert_no_child_left()


FAILING_PHASE = ["phase", "--p", "0.5", "--lambdas", "0.875,0.9375", "--horizon", "200",
                 "--seeds", "2"]


def _patch_tasks(monkeypatch, fail):
    """Sweep tasks run `fail(cell, seed)` first; 2 CPUs, so 2 workers do fork."""
    simulate = cli._simulate_cell

    def patched(task):
        fail(task[1], task[2])
        return simulate(task)

    monkeypatch.setattr(cli, "_simulate_cell", patched)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _run_failing(tmp_path, capsys, workers):
    code = main([*FAILING_PHASE, "--workers", str(workers), "--out", str(tmp_path / f"w{workers}")])
    return code, json.loads(capsys.readouterr().err.strip())["error"]


def test_worker_exception_exits_as_it_would_serially(tmp_path, monkeypatch, capsys):
    # tasks 1 and 2 refuse; worker 0 reaches task 2 first, but task 1 comes first
    def fail(cell, seed):
        if (cell, seed) in ((0, 1), (1, 0)):
            raise ConfigurationError(f"task {cell},{seed} refused")

    _patch_tasks(monkeypatch, fail)
    assert _run_failing(tmp_path, capsys, 1) == (EXIT_VALIDATION, "task 0,1 refused")
    assert _run_failing(tmp_path, capsys, 2) == (EXIT_VALIDATION, "task 0,1 refused")
    _assert_no_child_left()


class _NoPickle(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.callback = lambda: None


class _NoUnpickle(Exception):
    def __init__(self, a, b):
        super().__init__(a)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("exc", [_NoPickle(), _NoUnpickle("a", "b")],
                         ids=lambda e: type(e).__name__)
def test_unpicklable_worker_exception_is_a_runtime_error(exc):
    def fail(task):
        if task == 1:
            raise exc
        return task

    with pytest.raises(RuntimeError, match=type(exc).__name__):
        _fan_out(fail, [0, 1, 2], 2)
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_unpicklable_worker_exception_exits_1(tmp_path, monkeypatch, capsys):
    def fail(cell, seed):
        if (cell, seed) == (1, 1):
            raise _NoPickle()

    _patch_tasks(monkeypatch, fail)
    code, error = _run_failing(tmp_path, capsys, 2)
    assert code == EXIT_RUNTIME and "_NoPickle" in error
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_killed_worker_exits_1_and_is_named(tmp_path, monkeypatch, capsys):
    def fail(cell, seed):
        if (cell, seed) == (0, 1):  # task 1: worker 1's first
            os.kill(os.getpid(), signal.SIGKILL)

    _patch_tasks(monkeypatch, fail)
    assert _run_failing(tmp_path, capsys, 2) == (
        EXIT_RUNTIME, "runtime error: sweep worker 1 died")
    _assert_no_child_left()


def test_same_master_seed_identical_csv(tmp_path):
    base = dict(
        kind="phase", p=0.5, lambdas=(0.875,), window_rule="zero",
        policy="threshold:auto", horizon=1000.0, seeds=2, master_seed=11, workers=1,
    )
    from qadmit.cli import run_config

    run_config(RunConfig(**base, out_dir=str(tmp_path / "a")))
    run_config(RunConfig(**base, out_dir=str(tmp_path / "b")))
    assert (tmp_path / "a" / "phase.csv").read_bytes() == (tmp_path / "b" / "phase.csv").read_bytes()


# below 1 - p, at 1 and above 1: each is outside the overload range (0.5, 1) at p = 0.5
INFEASIBLE_LAMBDAS = [0.4, 1.0, 1.2]


@pytest.mark.parametrize("lam", INFEASIBLE_LAMBDAS)
@pytest.mark.parametrize("kind, lambdas", [
    ("simulate", "{},0.875"), ("analytic", "{},0.875"), ("phase", "{},0.875"),
    ("conserve", "{},0.875"), ("excursion", "{}"), ("diagnostic", "{}"),
])
def test_infeasible_lambda_exits_before_the_manifest(tmp_path, capsys, kind, lambdas, lam):
    out = tmp_path / "out"
    args = ["--p", "0.5", "--lambdas", lambdas.format(lam), "--window-rule", "constant:2",
            "--horizon", "200", "--seeds", "1", "--workers", "1", "--out", str(out)]
    assert main([kind, *args]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert "`lambdas` must lie in (0.5, 1)" in err["error"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lam", INFEASIBLE_LAMBDAS)
@pytest.mark.parametrize("sweep, fields", [
    (phase_sweep, dict(kind="phase", window_rule="log:2", policy="windowed-drain")),
    (conservation_sweep, dict(kind="conserve", policy="auto", c_values=(0.0, 1.0))),
], ids=["phase", "conserve"])
def test_unvalidated_sweep_rejects_an_infeasible_lambda(monkeypatch, sweep, fields, lam, workers):
    # a sweep of a config built in code validates it first, before any worker forks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so that 2 workers do fork
    cfg = RunConfig(p=0.5, lambdas=(lam, 0.875), horizon=200.0, seeds=1, workers=workers,
                    **fields)
    with pytest.raises(ConfigurationError):
        sweep(cfg)
    _assert_no_child_left()


def test_conserve_rejects_empty_c_values_before_any_file(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, kind="conserve", p=0.5, lambdas=[0.875], c_values=[],
                       out_dir=str(out))
    assert main(["conserve", "--config", str(cfg)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert "`c_values`" in err["error"]
    assert not out.exists()


def test_phase_csv_columns_and_stub(tmp_path):
    cfg = RunConfig(
        kind="phase", p=0.5, lambdas=(0.875,), window_rule="zero",
        policy="threshold:auto", horizon=500.0, seeds=2, master_seed=4,
        workers=1, out_dir=str(tmp_path / "out"),
    )
    from qadmit.cli import run_config

    run_config(cfg)
    rows = read_rows(tmp_path / "out" / "phase.csv")
    assert list(rows[0]) == [
        "lambda", "p", "window_rule", "window", "policy", "seed", "n_events",
        "mean_queue_event", "mean_queue_time", "diversion_rate", "wasted_rate",
        "ci_halfwidth", "aggregate_flag",
    ]
    # round-trip float formatting
    assert float(rows[0]["mean_queue_event"]) == json.loads(rows[0]["mean_queue_event"])
    assert (tmp_path / "out" / "plot_phase.py").exists()


def test_write_csv_raises_on_a_row_missing_a_column(tmp_path):
    # every writer passes every column, so a lost key is an error, not an empty cell
    with pytest.raises(KeyError, match="b"):
        cli._write_csv(tmp_path / "rows.csv", ["a", "b"], [{"a": 1, "b": 2}, {"a": 3}])


def test_conserve_rows_auto_policy_and_min():
    cfg = RunConfig(
        kind="conserve", p=0.5, lambdas=(0.875,), c_values=(0.0, 2.0, 6.0),
        policy="auto", horizon=1500.0, seeds=2, master_seed=6, workers=1,
    )
    rows = conservation_sweep(cfg)
    zero_rows = [r for r in rows if r["c"] == 0.0 and r["aggregate_flag"] == 0]
    pos_rows = [r for r in rows if r["c"] == 2.0 and r["aggregate_flag"] == 0]
    assert all(r["policy"] == "threshold:auto" for r in zero_rows)
    assert all(r["policy"] == "windowed-drain" for r in pos_rows)
    log_term = math.log(8.0)
    for r in zero_rows + pos_rows:
        assert r["ratio"] == pytest.approx((r["mean_queue_event"] + r["window"]) / log_term)
    mins = [r for r in rows if r["aggregate_flag"] == 2]
    assert len(mins) == 1 and mins[0]["c"] == "min"
    aggs = [r for r in rows if r["aggregate_flag"] == 1]
    assert mins[0]["ratio"] == pytest.approx(min(a["ratio"] for a in aggs))
    # growing c: the window term dominates and the ratio rises ~linearly
    by_c = {a["c"]: a["ratio"] for a in aggs}
    assert by_c[6.0] >= 6.0
    assert by_c[6.0] - by_c[2.0] == pytest.approx(4.0, abs=1.5)


def test_analytic_csv_matches_library(tmp_path):
    lams = [1 - 2.0**-k for k in (4, 5, 6)]
    cfg = RunConfig(
        kind="analytic", p=0.5, lambdas=tuple(lams), out_dir=str(tmp_path / "an")
    )
    from qadmit.cli import run_config

    run_config(cfg)
    rows = read_rows(tmp_path / "an" / "scaling.csv")
    table = online_scaling_table(0.5, lams)
    assert [float(r["lambda"]) for r in rows] == [t.arrival_rate for t in table]
    assert [int(r["x_star"]) for r in rows] == [t.x_star for t in table]
    assert float(rows[0]["ratio"]) == table[0].ratio


def test_excursion_json_and_samples(tmp_path):
    cfg = RunConfig(
        kind="excursion", p=0.5, lambdas=(0.9,), window_rule="constant:2",
        n_samples=150, master_seed=8, k=2.0, epsilon=0.3, zeta=1.0, phi=5.0,
        per_sample_csv=True, out_dir=str(tmp_path / "ex"),
    )
    from qadmit.cli import run_config

    run_config(cfg)
    payload = json.loads((tmp_path / "ex" / "excursion.json").read_text())
    assert set(payload["estimates"]) == {"e1", "e3", "e4", "e5"}
    assert payload["n_samples"] == 150
    assert len(payload["correlations"]) == 6
    samples = read_rows(tmp_path / "ex" / "excursion_samples.csv")
    assert len(samples) == 150
    assert list(samples[0]) == ["sample", "e1", "e3", "e4", "e5", "z", "Y", "V", "J", "L0"]
    assert samples[0]["Y"] == ""  # policy-dependent columns stay empty here


def test_excursion_q_ref_defaults_to_reference_queue(tmp_path):
    from qadmit.cli import run_config
    from qadmit.excursion import reference_queue
    from qadmit.stream import ModelParams

    cfg = RunConfig(
        kind="excursion", p=0.5, lambdas=(0.9,), window_rule="constant:2",
        n_samples=100, master_seed=8, k=2.0, epsilon=0.3, phi=5.0,
        out_dir=str(tmp_path / "ex"),
    )
    assert run_config(cfg) == EXIT_OK
    payload = json.loads((tmp_path / "ex" / "excursion.json").read_text())
    expected, source = reference_queue(ModelParams(0.9, 0.5, 2.0), "threshold:auto")
    assert source == "bd-oracle"
    assert payload["q_ref"] == expected > 0.0


@pytest.mark.parametrize("kind", ["excursion", "diagnostic"])
def test_single_lambda_kinds_reject_lists(tmp_path, capsys, kind):
    rc = main([kind, "--p", "0.5", "--lambdas", "0.9,0.95", "--out", str(tmp_path / kind)])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert "one lambda" in err["error"]
    assert not (tmp_path / kind).exists()


@pytest.mark.parametrize("kind, args, message", [
    ("excursion", ["--n-samples", "20"], "n_samples"),
    ("diagnostic", ["--n-samples", "0"], "n_samples"),
    ("excursion", ["--epsilon", "0.9"], "epsilon"),
    ("diagnostic", ["--epsilon", "0.9"], "epsilon"),
    ("excursion", ["--epsilon", "0.5", "--zeta", "0.4"], "epsilon"),
    ("excursion", ["--k", "0"], "k, phi, zeta"),
    ("excursion", ["--phi", "-1"], "k, phi, zeta"),
    ("diagnostic", ["--zeta", "0"], "k, phi, zeta"),
    ("excursion", ["--q-ref", "-0.5"], "q_ref"),
    ("excursion", ["--window-rule", "zero"], "window > 0"),
    ("diagnostic", ["--window-rule", "zero"], "window > 0"),
    ("diagnostic", ["--n-samples", "4294967297", "--q-ref", "1"], "n_samples"),
])
def test_excursion_geometry_rejected_before_any_file(tmp_path, capsys, kind, args, message):
    out = tmp_path / kind
    base = ["--p", "0.5", "--lambdas", "0.9", "--window-rule", "constant:2", "--out", str(out)]
    assert main([kind, *base, *args]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert message in err["error"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("rule", [
    "constant:inf", "constant:nan", "constant:-inf", "log:nan", "log:inf",
])
def test_non_finite_window_rule_rejected_before_any_file(tmp_path, capsys, rule):
    out = tmp_path / "out"
    args = ["--p", "0.5", "--lambdas", "0.9", "--window-rule", rule,
            "--policy", "windowed-drain", "--out", str(out)]
    assert main(["phase", *args]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert rule in err["error"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("kind, args, message", [
    ("simulate", ["--policy", "bogus", "--horizon", "100", "--seeds", "1"], "unknown policy"),
    ("simulate", ["--policy", "threshold:x=-1"], "threshold must be >= 0"),
    ("phase", ["--policy", "threshold:x=abc"], "bad threshold"),
    ("phase", ["--policy", "auto"], "unknown policy"),
    ("conserve", ["--policy", "threshold:auto:x"], "unknown policy"),
    ("excursion", ["--policy", "bogus", "--window-rule", "constant:2"], "unknown policy"),
    ("diagnostic", ["--policy", "windowed", "--window-rule", "constant:2"], "unknown policy"),
    # admit-all has no stationary mean queue to resolve an unset q_ref from
    ("excursion", ["--policy", "admit-all", "--window-rule", "constant:2"], "set `q_ref`"),
    ("diagnostic", ["--policy", "admit-all", "--window-rule", "constant:2"], "set `q_ref`"),
])
def test_policy_spec_rejected_before_any_file(tmp_path, capsys, kind, args, message):
    # the excursion case leaves q_ref unset, so the policy would pick it at run time
    out = tmp_path / kind
    assert main([kind, "--p", "0.5", "--lambdas", "0.9", "--out", str(out), *args]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert message in err["error"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("kind, x, message", [
    ("simulate", 10**20, "threshold must be <= 2**62"),
    ("excursion", 10**20, "threshold must be <= 2**62"),
    # with q_ref unset, the run would solve a law of 10**12 + 1 states
    ("excursion", 10**12, "birth-death law"),
    ("diagnostic", 10**12, "birth-death law"),
], ids=["simulate-past-2**62", "excursion-past-2**62", "excursion-law", "diagnostic-law"])
def test_threshold_the_run_cannot_hold_rejected_before_any_file(tmp_path, capsys, kind, x,
                                                                message):
    out = tmp_path / kind
    args = ["--p", "0.5", "--lambdas", "0.9", "--window-rule", "constant:2",
            "--policy", f"threshold:x={x}", "--horizon", "100", "--seeds", "1",
            "--workers", "1", "--out", str(out)]
    assert main([kind, *args]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert message in err["error"] and f"threshold:x={x}" in err["error"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("kind", ["excursion", "diagnostic"])
def test_explicit_threshold_law_counted_only_when_solved(kind):
    base = dict(kind=kind, p=0.5, lambdas=[0.9], window_rule="constant:2")
    assert config_from_mapping(base | {"policy": "threshold:x=10000"}).q_ref is None
    # an explicit q_ref solves no law, so its size is not counted
    cfg = config_from_mapping(base | {"policy": "threshold:x=1000000000000", "q_ref": 2.0})
    assert cfg.q_ref == 2.0


# x_hat is ~2.6e9 at p = 1e-9 and lambda = 1 - 1e-10, a law of ~114 GiB; the
# window and epsilon only let the Monte Carlo kinds' geometry through
_HUGE_AUTO_LAW = ["--p", "1e-9", "--lambdas", "0.9999999999", "--window-rule", "constant:2",
                  "--epsilon", "1e-10"]


@pytest.mark.parametrize("kind, q_ref", [
    ("simulate", None), ("analytic", None), ("phase", None), ("conserve", None),
    ("excursion", None), ("diagnostic", None), ("diagnostic", "2.0"),
])
def test_threshold_auto_law_counted_before_any_file(tmp_path, capsys, kind, q_ref):
    # validation alone rejects it, so nothing is solved or allocated
    out = tmp_path / kind
    args = [kind, *_HUGE_AUTO_LAW, "--out", str(out)]
    if q_ref is not None:
        args += ["--q-ref", q_ref]
    assert main(args) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert "birth-death law of `threshold:auto`" in err["error"]
    assert "physical memory" in err["error"]
    assert not (out / "manifest.json").exists()


def test_threshold_auto_law_uncounted_where_none_is_solved():
    # an excursion with q_ref set needs no policy, and windowed-drain no law
    base = dict(kind="excursion", p=1e-9, lambdas=[1 - 1e-10], window_rule="constant:2",
                epsilon=1e-10)
    assert config_from_mapping(base | {"q_ref": 2.0}).q_ref == 2.0
    for kind in ("simulate", "phase"):
        config_from_mapping(base | {"kind": kind, "policy": "windowed-drain", "horizon": 10.0})
    # conserve runs threshold:auto only in its zero-window cells
    config_from_mapping(base | {"kind": "conserve", "c_values": [1.0], "horizon": 10.0})
    with pytest.raises(ConfigurationError, match="birth-death law"):
        config_from_mapping(base | {"kind": "conserve", "c_values": [0.0, 1.0],
                                    "horizon": 10.0})


def test_threshold_auto_law_counted_once_whatever_the_workers(monkeypatch):
    # x_hat ~ 2.56e6 at p = 1e-6, lambda = 1 - 1e-7: ~123 MB of law, which the
    # calling process solves alone before any worker forks
    monkeypatch.setattr(os, "sysconf", _physical_memory(2**28))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    base = dict(kind="phase", p=1e-6, lambdas=[1 - 5e-7, 1 - 1e-7], horizon=10.0, seeds=4)
    for fields in ({"workers": 2}, {"workers": 4}, {"kind": "analytic"}):
        config_from_mapping(base | fields)
    # 64 MB holds no one law, at any worker count
    monkeypatch.setattr(os, "sysconf", _physical_memory(2**26))
    for fields in ({"workers": 1}, {"workers": 4}, {"kind": "analytic"}):
        with pytest.raises(ConfigurationError, match="birth-death law of `threshold:auto`"):
            config_from_mapping(base | fields)


_MONTE_CARLO = dict(lambdas=[0.9], window_rule="constant:2", n_samples=100, k=2.0,
                    epsilon=0.3, phi=5.0)


@pytest.mark.parametrize("kind, fields", [
    ("phase", {"policy": "threshold:auto"}),
    ("conserve", {"c_values": [0.0, 1.0]}),  # `auto`: threshold:auto in the c = 0 cells
    ("simulate", {"policy": "threshold:auto"}),
    ("analytic", {}),
    ("excursion", _MONTE_CARLO),  # threshold:auto's law gives q_ref
    ("diagnostic", _MONTE_CARLO | {"n_samples": 3}),  # and x* as well
    ("diagnostic", _MONTE_CARLO | {"n_samples": 3, "q_ref": 0.2}),  # x* alone
    ("diagnostic", _MONTE_CARLO | {"n_samples": 3, "policy": "threshold:x=2"}),  # q_ref alone
    ("phase", {"policy": "threshold:auto", "lambdas": [0.9, 0.9]}),  # one walk for both cells
])
def test_sweep_solves_each_threshold_auto_law_once(tmp_path, monkeypatch, kind, fields):
    # every kind's run solves each (lambda, x) law once: a sweep walks each
    # cell to x* before it forks, and every task of the cell runs that x*;
    # a diagnostic takes both x* and an unset q_ref from one walk
    from qadmit import excursion, policy
    from qadmit.cli import run_config

    def counting(solve):
        def counted(params, x):
            solved[params.arrival_rate, x] += 1
            return solve(params, x)
        return counted

    for module in (policy, excursion):  # excursion imports the name itself
        monkeypatch.setattr(module, "bd_stationary", counting(module.bd_stationary))
    monkeypatch.setattr(excursion, "DEFAULT_WARMUP_EVENTS", 500)  # a short diagnostic warm-up
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so that 2 workers do fork
    counts, outputs = [], []
    for workers in (1, 2):
        solved = Counter()
        out = tmp_path / f"w{workers}"
        cfg = config_from_mapping(dict(kind=kind, p=0.5, lambdas=[0.875, 0.9], horizon=500.0,
                                       seeds=3, workers=workers, out_dir=str(out)) | fields)
        assert run_config(cfg) == EXIT_OK
        counts.append(solved)
        outputs.append(b"".join(f.read_bytes() for f in sorted(out.iterdir())
                                if f.name != "manifest.json"))
    assert set(counts[0].values()) == {1}
    assert {lam for lam, _ in counts[0]} == set(cfg.lambdas)
    assert counts[0] == counts[1]
    assert outputs[0] == outputs[1]
    if kind in ("phase", "conserve", "simulate", "diagnostic") and cfg.policy != "threshold:x=2":
        # outputs print the spec as given, not the x* it ran
        assert b"threshold:auto" in outputs[0] and b"threshold:x=" not in outputs[0]


def test_run_config_validates_a_config_built_in_code(tmp_path):
    out = tmp_path / "out"
    cfg = RunConfig(kind="phase", p=0.5, lambdas=(0.4,), out_dir=str(out))
    with pytest.raises(ConfigurationError, match="`lambdas` must lie in"):
        cli.run_config(cfg)
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("kind", ["excursion", "diagnostic"])
def test_admit_all_takes_an_explicit_q_ref(kind):
    cfg = config_from_mapping(dict(kind=kind, p=0.5, lambdas=[0.9], window_rule="constant:2",
                                   policy="admit-all", q_ref=2.0))
    assert (cfg.policy, cfg.q_ref) == ("admit-all", 2.0)


def test_auto_policy_is_conserve_only():
    base = dict(p=0.5, lambdas=[0.9], policy="auto")
    assert config_from_mapping(base | {"kind": "conserve"}).policy == "auto"
    with pytest.raises(ConfigurationError, match="unknown policy"):
        config_from_mapping(base | {"kind": "simulate"})
    with pytest.raises(ConfigurationError, match="unknown policy"):
        config_from_mapping({"kind": "simulate", "p": 0.5, "lambdas": [0.9], "policy": 3})


def test_diagnostic_json(tmp_path, monkeypatch):
    from qadmit import excursion
    from qadmit.cli import run_config

    cfg = RunConfig(
        kind="diagnostic", p=0.5, lambdas=(0.9,), window_rule="constant:1",
        policy="threshold:auto", n_samples=100, master_seed=2, k=2.0,
        epsilon=0.3, zeta=2.0, phi=1.0, per_sample_csv=True,
        out_dir=str(tmp_path / "diag"),
    )
    monkeypatch.setattr(excursion, "DEFAULT_WARMUP_EVENTS", 500)  # a short warm-up
    assert run_config(cfg) == EXIT_OK
    payload = json.loads((tmp_path / "diag" / "diagnostic.json").read_text())
    assert payload["q_ref_source"] == "bd-oracle"
    assert payload["p_e2"]["n"] == 100
    samples = read_rows(tmp_path / "diag" / "diagnostic_samples.csv")
    assert len(samples) == 100
    assert samples[0]["Y"] != ""


def test_diagnostic_samples_reproduce_its_counts(tmp_path, monkeypatch):
    # q_ref = 0.2 makes e2 (Q0 <= 1.2) miss in about half the samples
    from qadmit import excursion

    monkeypatch.setattr(excursion, "DEFAULT_WARMUP_EVENTS", 500)
    out = tmp_path / "diag"
    assert main(["diagnostic", "--p", "0.5", "--lambdas", "0.9", "--window-rule", "constant:1",
                 "--q-ref", "0.2", "--n-samples", "60", "--per-sample-csv",
                 "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "diagnostic.json").read_text())
    samples = read_rows(out / "diagnostic_samples.csv")
    assert list(samples[0]) == ["sample", "e1", "e2", "e3", "e4", "e5", "z", "Y", "V", "J",
                                "L0", "Q0"]
    assert sum(int(r["e1"]) for r in samples) == payload["p_e1"]["hits"]
    assert sum(int(r["e2"]) for r in samples) == payload["p_e2"]["hits"]
    assert 0 < payload["p_e2"]["hits"] < 60
    assert sum(r["e1"] == r["e2"] == "1" for r in samples) == payload["n_conditional"]
    for r in samples:
        assert int(r["e2"]) == (int(r["Q0"]) <= 6 * 0.2)
        assert int(r["L0"]) == (int(r["Q0"]) <= 2 * 0.2)


@pytest.mark.parametrize("policy", ["threshold:auto", "windowed-drain"])
def test_diagnostic_pool_worker_count_invariance(tmp_path, monkeypatch, policy):
    # 7 samples: one worker runs samples 0-2, the other 3-6
    from qadmit import excursion

    monkeypatch.setattr(excursion, "DEFAULT_WARMUP_EVENTS", 500)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so that 2 workers do fork
    pools, fan_out = [], cli._fan_out

    def recording(fn, tasks, workers):
        pools.append(workers)
        return fan_out(fn, tasks, workers)

    monkeypatch.setattr(cli, "_fan_out", recording)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main(["diagnostic", "--p", "0.5", "--lambdas", "0.9", "--window-rule",
                     "constant:1", "--policy", policy, "--n-samples", "7", "--per-sample-csv",
                     "--workers", str(workers), "--out", str(out)]) == EXIT_OK
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()
                        if f.name != "manifest.json"})
    assert pools == [1, 2]
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == {"diagnostic.json", "diagnostic_samples.csv"}
    samples = read_rows(tmp_path / "w2" / "diagnostic_samples.csv")
    assert [int(r["sample"]) for r in samples] == list(range(7))
    _assert_no_child_left()


def test_diagnostic_memory_counts_a_stream_per_worker(tmp_path, monkeypatch, capsys):
    # each worker holds one sample's stream at a time: physical memory for one
    # and a half streams runs one worker and refuses two before any file
    from qadmit import excursion

    monkeypatch.setattr(excursion, "DEFAULT_WARMUP_EVENTS", 500)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    args = ["diagnostic", "--p", "0.5", "--lambdas", "0.9", "--window-rule", "constant:1",
            "--q-ref", "1.0", "--n-samples", "3"]
    config = excursion.ExcursionConfig(ModelParams(0.9, 0.5, 1.0), k=1.0, epsilon=0.05,
                                       zeta=1.0, phi=1.0, q_ref=1.0)
    horizon = config.horizon_needed + excursion.default_warmup_time(config) + config.window
    stream_bytes = config.params.total_rate * horizon * cli.PEAK_BYTES_PER_EVENT
    monkeypatch.setattr(os, "sysconf", _physical_memory(int(1.5 * stream_bytes)))
    out = tmp_path / "w2"
    assert main([*args, "--workers", "2", "--out", str(out)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert "physical memory" in err and "`workers`" in err
    assert not (out / "manifest.json").exists()
    assert main([*args, "--workers", "1", "--out", str(tmp_path / "w1")]) == EXIT_OK


@pytest.mark.parametrize("args, source", [
    (["--q-ref", "1.5"], "config"),
    (["--policy", "windowed-drain"], "pilot-run"),
])
def test_diagnostic_json_names_its_q_ref_source(tmp_path, monkeypatch, args, source):
    from qadmit import excursion

    monkeypatch.setattr(excursion, "DEFAULT_WARMUP_EVENTS", 500)
    out = tmp_path / "diag"
    assert main(["diagnostic", "--p", "0.5", "--lambdas", "0.9", "--window-rule", "constant:1",
                 "--n-samples", "3", "--out", str(out), *args]) == EXIT_OK
    assert json.loads((out / "diagnostic.json").read_text())["q_ref_source"] == source


def test_main_subcommand_with_overrides(tmp_path, capsys):
    rc = main([
        "analytic", "--p", "0.5", "--lambdas", "0.9375,0.96875",
        "--out", str(tmp_path / "m"),
    ])
    assert rc == EXIT_OK
    assert (tmp_path / "m" / "scaling.csv").exists()


def test_main_cli_overrides_beat_config(tmp_path):
    cfg = write_config(tmp_path, **(MINIMAL_SIM | {"out_dir": str(tmp_path / "c1")}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "c2"), "--seeds", "2"])
    assert rc == EXIT_OK
    assert not (tmp_path / "c1").exists()
    assert len(list((tmp_path / "c2").glob("run_*.json"))) == 2


def test_main_validation_error_exit(tmp_path, capsys):
    rc = main(["simulate", "--lambdas", "0.9"])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert "`p`" in err["error"]


@pytest.mark.parametrize("kind, args", [
    ("excursion", ["--window-rule", "constant:2", "--q-ref", "0.1"]),
    ("simulate", ["--horizon", "100", "--seeds", "1"]),
])
def test_negative_master_seed_rejected_before_any_file(tmp_path, capsys, kind, args):
    out = tmp_path / "out"
    rc = main([kind, "--p", "0.5", "--lambdas", "0.9", "--master-seed", "-1", "--out", str(out),
               *args])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert "`master_seed`" in err["error"]
    assert not out.exists()


def test_config_kind_must_match_the_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **(MINIMAL_SIM | {"kind": "explore", "out_dir": str(out)}))
    assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert "`explore`" in err["error"] and "`simulate`" in err["error"]
    assert not out.exists()
    # a file of another known kind is no override either
    cfg = write_config(tmp_path, **(MINIMAL_SIM | {"kind": "phase", "out_dir": str(out)}))
    assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION
    assert not out.exists()


EXCURSION_BASE = dict(
    kind="excursion", p=0.5, lambdas=[0.9], window_rule="constant:2", epsilon=0.3,
    n_samples=100, q_ref=0.1,
)


@pytest.mark.parametrize("base, field, value", [
    (MINIMAL_SIM, "seeds", 2.5),
    (MINIMAL_SIM, "master_seed", 1.5),
    (EXCURSION_BASE, "n_samples", 150.5),
    (MINIMAL_SIM, "q0", 1.5),
    (MINIMAL_SIM, "workers", 1.5),
    (MINIMAL_SIM, "workers", True),
    (EXCURSION_BASE, "k", float("nan")),
    (EXCURSION_BASE, "q_ref", float("inf")),
    (MINIMAL_SIM, "horizon", "100"),
    (MINIMAL_SIM, "lambdas", [0.9, "0.95"]),
    (MINIMAL_SIM, "lambdas", 0.9),
    (MINIMAL_SIM, "window_rule", 3),
    (MINIMAL_SIM, "out_dir", 3),
    (MINIMAL_SIM, "trajectory_csv", 1),
])
def test_mistyped_field_rejected_before_any_file(tmp_path, capsys, base, field, value):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **(base | {"out_dir": str(out), field: value}))
    assert main([base["kind"], "--config", str(cfg)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit"] == EXIT_VALIDATION
    assert f"`{field}`" in err["error"]
    assert not out.exists()


def test_int_for_float_field_kept_as_given(tmp_path):
    out = tmp_path / "ex"
    cfg = config_from_mapping(EXCURSION_BASE | {"k": 2, "phi": 40, "out_dir": str(out)})
    assert type(cfg.k) is int and cfg.lambdas == (0.9,)
    from qadmit.cli import run_config

    assert run_config(cfg) == EXIT_OK
    text = (out / "excursion.json").read_text()
    assert '"k": 2,' in text and '"phi": 40,' in text


@pytest.mark.parametrize("flag", ["--lambdas", "--c-values", "--seeds"])
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, flag):
    value = "abc" if flag == "--seeds" else "0.9,abc"
    argv = ["phase", "--p", "0.5", "--lambdas", "0.9", flag, value, "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


KIND_RUNS = {
    "simulate": (["--lambdas", "0.875", "--horizon", "200", "--seeds", "2", "--trajectory-csv"],
                 {"run_lam0_seed0.json", "run_lam0_seed1.json",
                  "trajectory_lam0_seed0.csv", "trajectory_lam0_seed1.csv"}),
    "analytic": (["--lambdas", "0.875,0.9375"], {"scaling.csv"}),
    "excursion": (["--lambdas", "0.9", "--window-rule", "constant:2", "--epsilon", "0.3",
                   "--n-samples", "100", "--q-ref", "0.1", "--per-sample-csv"],
                  {"excursion.json", "excursion_samples.csv"}),
    "phase": (["--lambdas", "0.875", "--horizon", "200", "--seeds", "2"],
              {"phase.csv", "plot_phase.py"}),
    "conserve": (["--lambdas", "0.875", "--c-values", "0,1", "--horizon", "200", "--seeds", "1"],
                 {"conserve.csv", "plot_conserve.py"}),
    "diagnostic": (["--lambdas", "0.9", "--window-rule", "constant:1", "--epsilon", "0.3",
                    "--n-samples", "3", "--per-sample-csv"],
                   {"diagnostic.json", "diagnostic_samples.csv"}),
}


def test_kind_runs_cover_the_kind_table():
    from qadmit.cli import RUNNERS

    assert list(RUNNERS) == list(KIND_RUNS)


@pytest.mark.parametrize("kind", list(KIND_RUNS))
def test_each_kind_writes_exactly_its_files(tmp_path, monkeypatch, kind):
    from qadmit import excursion

    monkeypatch.setattr(excursion, "DEFAULT_WARMUP_EVENTS", 500)
    args, files = KIND_RUNS[kind]
    out = tmp_path / kind
    assert main([kind, "--p", "0.5", "--workers", "1", "--out", str(out), *args]) == EXIT_OK
    assert {f.name for f in out.iterdir()} == files | {"manifest.json"}


EVERY_FLAG = [
    "--p", "0.5", "--lambdas", "0.9,0.95", "--window-rule", "log:2", "--policy", "admit-all",
    "--horizon", "10", "--seeds", "3", "--master-seed", "4", "--out", "d", "--q0", "5",
    "--burn-in", "0.2", "--workers", "2", "--n-samples", "7", "--k", "1.5", "--epsilon", "0.1",
    "--zeta", "2", "--phi", "3", "--q-ref", "0.5", "--c-values", "0,1", "--per-sample-csv",
    "--trajectory-csv",
]


def test_every_flag_maps_to_its_field(monkeypatch):
    from qadmit import cli

    seen = []
    monkeypatch.setattr(cli, "config_from_mapping", seen.append)
    monkeypatch.setattr(cli, "run_config", lambda cfg: EXIT_OK)
    assert main(["simulate", *EVERY_FLAG]) == EXIT_OK
    expected = {
        "kind": "simulate", "p": 0.5, "lambdas": [0.9, 0.95], "window_rule": "log:2",
        "policy": "admit-all", "horizon": 10.0, "seeds": 3, "master_seed": 4, "out_dir": "d",
        "q0": 5, "burn_in": 0.2, "workers": 2, "n_samples": 7, "k": 1.5, "epsilon": 0.1,
        "zeta": 2.0, "phi": 3.0, "q_ref": 0.5, "c_values": [0.0, 1.0],
        "per_sample_csv": True, "trajectory_csv": True,
    }
    assert seen[0] == expected
    assert {k: type(v) for k, v in seen[0].items()} == {k: type(v) for k, v in expected.items()}
    assert set(expected) == {f.name for f in dataclasses.fields(RunConfig)}
    # an absent flag leaves its field to the file or the default
    assert main(["phase"]) == EXIT_OK
    assert seen[1] == {"kind": "phase"}


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Each `qadmit ...` command in README.md's bash blocks, continuations joined."""
    text = _README.read_text()
    return [shlex.split(line)
            for block in re.findall(r"```bash\n(.*?)```", text, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("qadmit ")]


def test_readme_commands_validate(monkeypatch):
    from qadmit import cli

    monkeypatch.setattr(cli, "run_config", lambda cfg: EXIT_OK)
    commands = _readme_commands()
    assert sorted(argv[1] for argv in commands) == sorted(KIND_RUNS)
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, shlex.join(argv)


def test_readme_library_quick_start_runs():
    text = _README.read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    names: dict = {}
    exec(block, names)
    assert names["x"] == 2
    assert names["exact"] == pytest.approx(1.3708609, abs=1e-7)
