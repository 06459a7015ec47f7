"""Steadiness proof: run the benchmark on several seeds and report each spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 0] [--workload NAME ...] [--counts]

For every workload it makes ``--runs`` untraced runs, one seed each, and
prints for every end-to-end metric the median, the quartiles and the
spread (third minus first quartile, as a share of the median) next to a
third of the metric's bound in BENCHMARK.json.  It fails when a run is
not correct, when a run's metric names or units differ from
BENCHMARK.json, or when a spread other than setup_s's exceeds its bound.

With ``--counts`` it also makes two traced runs of one seed per workload
and fails unless every count metric repeats exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise SystemExit(f"{workload} seed {seed}: metrics {sorted(got)} != {sorted(wanted)}")
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: not correct\n{proc.stdout}")
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()

    report, ok = {}, True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            result = run(workload, seed, trace=0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s, "
                  f"{result['attempted']} repetitions", flush=True)
        report[workload] = {}
        for metric in SPEC["end_to_end"]:
            med, q1, q3, rel = spread(values[metric["name"]])
            target = metric["bound"] / 3
            flag = "ok" if rel <= target else ("over a third of bound" if rel <= metric["bound"]
                                               else "OVER BOUND")
            if rel > metric["bound"] and metric["name"] != "setup_s":
                ok = False
            report[workload][metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                                "values": values[metric["name"]]}
            print(f"  {metric['name']:<16} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {rel:7.4f}  bound/3 {target:.4f}  {flag}", flush=True)

    if args.counts:
        for workload in args.workload:
            a, b = (run(workload, args.first_seed, trace=1) for _ in range(2))
            counts = [n for n, m in a["metrics"].items() if m["unit"] == "count"]
            differ = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            ok = ok and not differ
            print(f"{workload}: {len(counts)} counts "
                  f"{'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}")

    out = BENCH / ".out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"{'steady' if ok else 'NOT STEADY'}; details in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
