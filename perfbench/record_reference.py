"""Record the reference output rows that run.py compares against.

    python3 perfbench/record_reference.py [--seeds 0-15] [--workload NAME ...]

Run it only on a commit whose outputs are known good: the seed commit of
the benchmark, or after a change that is meant to alter outputs.  Rows are
stored as 16-hex-digit SHA-256 prefixes; the excursion per-sample CSV,
whose rows are fixed by four indicator bits, is stored as one hex nibble
per sample (e1, e3, e4, e5 from the high bit down).
"""

import argparse
import json
import time

from run import BENCH, WORKLOADS, Runner, code_fingerprint, environment, row_digest, sample_row


def encode(rows: dict) -> dict:
    entry = {}
    for name, lines in rows.items():
        if name == "excursion_samples.csv":
            nibbles = []
            for i, line in enumerate(lines[1:]):
                bits = line.split(",")[1:5]
                nibble = format(int("".join(bits), 2), "x")
                if sample_row(i, nibble) != line:
                    raise SystemExit(f"row {i} of {name} has an unexpected layout: {line!r}")
                nibbles.append(nibble)
            entry[name] = {"header": row_digest(lines[0]), "indicators": "".join(nibbles)}
        else:
            entry[name] = [row_digest(line) for line in lines]
    return entry


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = parser.parse_args()
    for workload in args.workload:
        seeds = {}
        for seed in args.seeds:
            rep = Runner(workload, seed, time.monotonic() + 600).rep("plain")
            if "error" in rep:
                raise SystemExit(f"{workload} seed {seed}: {rep['error']}")
            seeds[str(seed)] = encode(rep["rows"])
            print(f"{workload} seed {seed}: recorded", flush=True)
        env = environment(WORKLOADS[workload]["workers"], rep["numpy"], code_fingerprint())
        ref = {"config": WORKLOADS[workload], "recorded_with": env, "seeds": seeds}
        path = BENCH / "reference" / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
