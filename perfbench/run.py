"""qadmit benchmark: fixed CLI experiments, end to end and per layer.

    python3 perfbench/run.py --workload phase-online --seed 0 --seconds 55 --trace 0

Each repetition is a fresh interpreter (``child.py``) that imports qadmit
from ``src/`` of this checkout, validates the workload's config with
``qadmit.cli.config_from_mapping`` and calls ``qadmit.cli.run_config``.

``--trace 0`` first runs one counting repetition with ``workers=1`` (it
warms the import caches, counts events and samples, and gives the
``workers=1`` output), then untraced repetitions with the workload's own
worker count for ``--seconds``, and reports the medians of the end-to-end
metrics, with times scaled to the reference host speed (see ``scaled``).
``--trace 1`` cycles an untraced repetition, an untraced
``workers=1`` repetition and a traced ``workers=1`` repetition for
``--seconds`` and reports the per-layer metrics.

Every output row is compared with reference digests recorded at the seed
commit (``reference/``) when the seed has them, and otherwise with the
run's first repetition, so ``workers=1`` and ``workers=2`` must agree byte
for byte.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import csv
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
TIME_LIMIT_S = 170.0  # the whole run must end within 180 s
REP_MARGIN_S = 30.0  # no repetition starts later than this before the limit
MIN_REPS = 10
# child.calibrate() takes this long on the reference host (2-vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6) in its fast state; see scaled().
REF_CALIB_S = 0.04

LAMBDA_GRID = [1.0 - 2.0**-k for k in range(3, 8)]

# Every config field is set, so a later change to a default cannot change
# the traffic.  master_seed and out_dir are filled in per repetition.
_PHASE = {
    "kind": "phase", "p": 0.5, "lambdas": LAMBDA_GRID, "q0": 0, "n_samples": 1000,
    "k": 1.0, "epsilon": 0.05, "zeta": 1.0, "phi": 1.0, "q_ref": None,
    "c_values": [0.0, 1.0, 2.0, 4.0, 8.0], "per_sample_csv": False, "trajectory_csv": False,
}
WORKLOADS = {
    # windowed-drain kernel (sliding prefix minimum plus credit loop);
    # bypasses the threshold loop and the excursion sampler.  Not listed in
    # BENCHMARK.json, so that the listed workloads get longer runs on a noisy
    # host; run it by hand for work on the windowed-drain kernel.
    "phase-lookahead": _PHASE | {
        "window_rule": "log:8", "policy": "windowed-drain", "horizon": 20_000.0,
        "seeds": 2, "burn_in": 0.2, "workers": 2,
    },
    # threshold loop and long streams (memory); bypasses windowed-drain
    "phase-online": _PHASE | {
        "window_rule": "zero", "policy": "threshold:auto", "horizon": 100_000.0,
        "seeds": 2, "burn_in": 0.1, "workers": 2,
    },
    # many short streams: per-call overhead of stream generation, seeding
    # and event evaluation; never calls the simulator
    "excursion-mc": {
        "kind": "excursion", "p": 0.5, "lambdas": [0.9], "window_rule": "constant:2",
        "policy": "threshold:auto", "horizon": 100_000.0, "seeds": 8, "q0": 0,
        "burn_in": 0.1, "workers": 2, "n_samples": 1_500, "k": 2.0, "epsilon": 0.3,
        "zeta": 1.0, "phi": 40.0, "q_ref": 0.1, "c_values": [0.0, 1.0, 2.0, 4.0, 8.0],
        "per_sample_csv": True, "trajectory_csv": False,
    },
}
SAMPLE_EVENTS = ("e1", "e3", "e4", "e5")


def workload_config(name: str, seed: int, out_dir: Path, workers: int | None = None) -> dict:
    cfg = WORKLOADS[name] | {"master_seed": seed, "out_dir": str(out_dir)}
    if workers is not None:
        cfg["workers"] = workers
    return cfg


# -- repetitions ---------------------------------------------------------------


class Runner:
    """Starts child repetitions one at a time and keeps the run under its deadline."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.n = 0

    def rep(self, mode: str, workers: int | None = None) -> dict:
        self.n += 1
        tag = f"{self.workload}-s{self.seed}-p{os.getpid()}-{self.n}"
        out_dir = OUT / "runs" / tag
        spans = OUT / "spans" / f"{self.workload}-s{self.seed}.jsonl"  # the last traced one
        spans.parent.mkdir(parents=True, exist_ok=True)
        cfg = workload_config(self.workload, self.seed, out_dir, workers)
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), mode, repr(t0), str(SRC),
             json.dumps(cfg), str(spans)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"mode": mode, "error": "timed out"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            return {"mode": mode, "error": f"exit {proc.returncode}: {tail[0]}"}
        result = json.loads(stdout.strip().splitlines()[-1])
        result["mode"] = mode
        result["workers"] = cfg["workers"]
        if result["exit"] != 0:
            result["error"] = f"run_config returned {result['exit']}"
        return result

    def time_left(self) -> bool:
        """Whether another repetition can start and still end before the deadline."""
        return self.deadline - time.monotonic() > REP_MARGIN_S


# -- correctness ---------------------------------------------------------------


def row_digest(row: str) -> str:
    return hashlib.sha256(row.encode()).hexdigest()[:16]


def sample_row(i: int, nibble: str) -> str:
    """The per-sample CSV row of sample i whose (e1, e3, e4, e5) bits are ``nibble``."""
    bits = [(int(nibble, 16) >> s) & 1 for s in (3, 2, 1, 0)]
    return ",".join([str(i), *map(str, bits)]) + ",,,,,\r"


def digests(rows: dict) -> dict:
    return {name: [row_digest(r) for r in lines] for name, lines in rows.items()}


def reference_digests(workload: str, seed: int) -> dict | None:
    path = BENCH / "reference" / f"{workload}.json"
    ref = json.loads(path.read_text())
    if ref["config"] != WORKLOADS[workload]:
        raise SystemExit(f"{path} was recorded for another config; record it again")
    entry = ref["seeds"].get(str(seed))
    if entry is None:
        return None
    out = {}
    for name, value in entry.items():
        if isinstance(value, dict):  # per-sample CSV: header digest plus indicator nibbles
            out[name] = [value["header"]] + [
                row_digest(sample_row(i, c)) for i, c in enumerate(value["indicators"])
            ]
        else:
            out[name] = value
    return out


def compare_rows(expected: dict, got: dict | None) -> tuple[int, int]:
    """(mismatched, total) rows; a missing output counts as all rows mismatched."""
    total = sum(len(rows) for rows in expected.values())
    if got is None:
        return total, total
    bad = 0
    for name, want in expected.items():
        have = got.get(name, [])
        bad += sum(1 for i, d in enumerate(want) if i >= len(have) or have[i] != d)
        bad += max(len(have) - len(want), 0)
    return bad, total


def semantic_errors(workload: str, rows: dict) -> list[str]:
    """Reference-free checks of one repetition's outputs."""
    cfg = WORKLOADS[workload]
    errors = []
    if cfg["kind"] == "phase":
        table = list(csv.DictReader(line.rstrip("\r") for line in rows["phase.csv"]))
        per_seed = [r for r in table if r["aggregate_flag"] == "0"]
        if len(per_seed) != len(cfg["lambdas"]) * cfg["seeds"]:
            errors.append(f"{len(per_seed)} per-seed rows")
        for agg in (r for r in table if r["aggregate_flag"] == "1"):
            cell = [r for r in per_seed if r["lambda"] == agg["lambda"]]
            for col in ("n_events", "mean_queue_event", "mean_queue_time", "diversion_rate",
                        "wasted_rate"):
                mean = sum(float(r[col]) for r in cell) / len(cell) if cell else None
                if mean is None or repr(mean) != agg[col]:
                    errors.append(f"aggregate {col} at lambda={agg['lambda']}")
    else:
        table = list(csv.DictReader(line.rstrip("\r") for line in rows["excursion_samples.csv"]))
        summary = json.loads(rows["excursion.json"][0])
        if len(table) != cfg["n_samples"]:
            errors.append(f"{len(table)} per-sample rows")
        for e in SAMPLE_EVENTS:
            hits = sum(int(r[e]) for r in table)
            est = summary["estimates"][e]
            if (est["hits"], est["n"], est["mean"]) != (hits, len(table), hits / len(table)):
                errors.append(f"estimate {e}")
    return errors


def check_counts(workload: str, seed: int, counts: dict, fingerprint: str) -> bool:
    """Counts must repeat exactly across runs of one seed on one code version."""
    path = OUT / "counts" / f"{workload}-s{seed}.json"
    if path.exists():
        saved = json.loads(path.read_text())
        if saved["fingerprint"] == fingerprint:
            return saved["counts"] == counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fingerprint": fingerprint, "counts": counts}, sort_keys=True))
    return True


# -- environment ---------------------------------------------------------------


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(workers: int, numpy_version: str | None, fingerprint: str) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        describe = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        describe = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_describe": describe,
        "code_fingerprint": fingerprint,
        "workers": workers,
    }


# -- metrics -------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def scaled(reps: list[dict], seconds) -> float:
    """Median of a per-repetition time scaled to the reference host speed.

    The host's speed drifts by up to ~1.8x over minutes and swings within
    seconds, in process CPU time as much as in wall time.  Each repetition
    times a fixed calibration right after run_config; dividing by it cancels
    the host's speed at that moment, and REF_CALIB_S turns the ratio back
    into seconds at the reference speed.
    """
    return median(seconds(r) * REF_CALIB_S / r["calib_s"] for r in reps)


def end_to_end(reps: list[dict], events: int, samples: int) -> dict:
    wall = scaled(reps, lambda r: r["wall_s"])
    return {
        "setup_s": (scaled(reps, lambda r: r["setup_s"]), "s"),
        "wall_s": (wall, "s"),
        "events_per_s": (events / wall, "1/s"),
        "samples_per_s": (samples / wall, "1/s"),
        "cpu_s": (scaled(reps, lambda r: r["cpu_self_s"] + r["cpu_children_s"]), "s"),
        "peak_rss_mb": (median(r["maxrss_kb"] / 1024 for r in reps), "MB"),
    }


def unscaled(reps: list[dict]) -> dict:
    """Plain medians of the measured times and of the calibration, for the record."""
    return {
        "setup_s": median(r["setup_s"] for r in reps),
        "wall_s": median(r["wall_s"] for r in reps),
        "cpu_s": median(r["cpu_self_s"] + r["cpu_children_s"] for r in reps),
        "calib_s": median(r["calib_s"] for r in reps),
    }


LAYER_UNITS = {
    "sim.run_simulation_ns_per_event": "ns/event",
    "sim.flow_identity_ns_per_event": "ns/event",
    "stream.generate_ns_per_event": "ns/event",
    "stream.generate_us_per_call": "us/call",
    "stream.replication_seed_us_per_call": "us/call",
    "excursion.evaluate_us_per_sample": "us/sample",
    "excursion.estimate_self_us_per_sample": "us/sample",
    "policy.make_policy_us_per_call": "us/call",
    "analytic.bd_stationary_s": "s",
    "cli.self_s": "s",
    "stream.bytes_per_event": "B/event",
    "sim.bytes_per_event": "B/event",
}


def per_layer(traced: list[dict], plain: list[dict], plain_w1: list[dict], workers: int,
              mismatch_frac: float) -> dict:
    out = {name: (median(r["layers"][name] for r in traced), unit)
           for name, unit in LAYER_UNITS.items()}
    for name, value in traced[0]["counts"].items():
        out[name] = (value, "count")
    for name in ("flow_identity_violations", "budget_bound_violations", "decide_path_mismatches",
                 "decide_path_events"):
        out[f"check.{name}"] = (max(r["checks"][name] for r in traced), "count")  # per repetition
    out["cli.pool_busy_frac"] = (
        median(r["cpu_children_s"] / (workers * r["wall_s"]) for r in plain), "1")
    untraced = median(r["wall_s"] for r in plain_w1)
    traced_wall = median(r["wall_s"] - r["layers"]["trace.check_s"] for r in traced)
    out["trace.overhead_frac"] = (traced_wall / untraced - 1.0 if untraced else 0.0, "1")
    out["check.mismatch_frac"] = (mismatch_frac, "1")
    return out


# -- main ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "qadmit" / "cli.py").is_file():
        print(f"error: no qadmit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    runner = Runner(args.workload, args.seed, start + TIME_LIMIT_S)
    workers = WORKLOADS[args.workload]["workers"]
    fingerprint = code_fingerprint()
    expected = reference_digests(args.workload, args.seed)
    reference = "recorded" if expected is not None else "first repetition"

    reps: list[dict] = []
    if args.trace == 0:
        reps.append(runner.rep("count", workers=1))
        measure_from = time.monotonic()
        while runner.time_left() and (
            time.monotonic() - measure_from < args.seconds
            or sum(r["mode"] == "plain" for r in reps) < MIN_REPS
        ):
            reps.append(runner.rep("plain"))
            if "error" in reps[-1]:
                break
    else:
        while runner.time_left():
            cycle = [runner.rep("plain"), runner.rep("plain", workers=1),
                     runner.rep("trace", workers=1)]
            reps += cycle
            if any("error" in r for r in cycle) or time.monotonic() - start >= args.seconds:
                break

    # correctness: rows against the reference, reference-free checks, counts
    failed, bad_rows, total_rows, notes = 0, 0, 0, []
    counted = [r for r in reps if "counts" in r]
    for r in reps:
        problems, got = [], None
        if "error" in r:
            problems.append(r["error"])
        else:
            rows = r.pop("rows")
            try:
                problems += semantic_errors(args.workload, rows)
            except (KeyError, ValueError, ZeroDivisionError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            got = digests(rows)
            expected = expected or got
            if "counts" in r and r["counts"] != counted[0]["counts"]:
                problems.append("counts differ between repetitions")
            for name, value in r.get("checks", {}).items():
                if value and name not in ("budget_bound_paths", "decide_path_events"):
                    problems.append(f"{name}: {value}")
        bad, total = compare_rows(expected or {}, got)
        bad_rows, total_rows = bad_rows + bad, total_rows + total
        if bad and got is not None:
            problems.append(f"{bad} of {total} rows differ from the {reference} rows")
        if problems:
            failed += 1
            more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
            notes.append(f"{r['mode']} repetition: {problems[0]}{more}")
    ok_counts = [r for r in counted if "error" not in r]
    if ok_counts and not check_counts(args.workload, args.seed, ok_counts[0]["counts"],
                                      fingerprint):
        failed += 1
        notes.append("counts differ from an earlier run of this seed on the same code")
    mismatch_frac = bad_rows / total_rows if total_rows else 1.0

    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if r["mode"] == "plain" and r["workers"] == workers]
    raw = unscaled(plain) if plain else {}
    if args.trace == 0:
        counts = ok_counts[0]["counts"] if ok_counts else {}
        phase = WORKLOADS[args.workload]["kind"] == "phase"
        events = counts.get("sim.events" if phase else "stream.events", 0)
        samples = counts.get("cli.tasks" if phase else "excursion.samples", 0)
        metrics = end_to_end(plain, events, samples) if plain else {}
    else:
        traced = [r for r in good if r["mode"] == "trace"]
        plain_w1 = [r for r in good if r["mode"] == "plain" and r["workers"] == 1]
        metrics = (per_layer(traced, plain, plain_w1, workers, mismatch_frac)
                   if traced and plain and plain_w1 else {})
    correct = failed == 0 and bool(metrics)

    env = environment(workers, good[0]["numpy"] if good else None, fingerprint)
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "reference": reference,
        "mismatch_frac": mismatch_frac, "rows_compared": total_rows, "notes": notes,
        "unscaled_medians": raw, "ref_calib_s": REF_CALIB_S,
        "repetitions": [{k: v for k, v in r.items() if k != "digests"} for r in reps],
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} repetitions={len(reps)} "
          f"reference={reference}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  {'mismatch_frac':<40} {mismatch_frac:>16.6g} 1 ({total_rows} rows compared)")
    if raw:
        print("  unscaled medians: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())
              + f" (reference calib_s {REF_CALIB_S} s)")
    for note in notes:
        print(f"  FAILED {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
