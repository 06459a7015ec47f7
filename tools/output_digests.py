#!/usr/bin/env python3
"""SHA-256 digests of every CLI kind's output files and every demo's stdout.

Runs a fixed list of small CLI configs, covering all six kinds, once with
``--workers 1`` and once with ``--workers 2``, and prints one
``<sha256>  <config>/<file>`` line per output file (``manifest.json``,
which records a timestamp, is left out).  Then it runs each demo and
prints one ``<sha256>  <demo>:stdout`` line, and last the lines of the
configs added since (``LATER_CONFIGS``), so that an older printout stays
a prefix of a newer one.

The printout is recorded in ``tools/output_digests.txt`` (numpy 2.4.6 on
x86-64), and CI diffs a fresh printout against it, so a change that moves
an output byte shows as a changed line:

    python3 tools/output_digests.py | diff tools/output_digests.txt -

A change that moves bytes on purpose re-records the file in the same
commit (``python3 tools/output_digests.py > tools/output_digests.txt``)
and lists the moved lines in CHANGES.md.

Exits 1 if any config's files differ between the two worker counts or a
demo fails.  Uses only the standard library and the package in ``src/``;
about 5 s on 2 vCPUs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qadmit import cli  # noqa: E402

EXCURSION = "excursion --p 0.5 --lambdas 0.9 --window-rule constant:2 --k 2 --epsilon 0.3 " \
            "--phi 40 --n-samples 200 --per-sample-csv"
DIAGNOSTIC = "diagnostic --p 0.5 --lambdas 0.9 --window-rule constant:1 --n-samples 3 " \
             "--per-sample-csv"

# (name, CLI arguments but --workers and --out); each q_ref source is covered
CONFIGS = [
    ("phase-threshold", "phase --p 0.5 --lambdas 0.875,0.9375 --policy threshold:auto "
                        "--horizon 2000 --seeds 2"),
    ("phase-drain", "phase --p 0.5 --lambdas 0.875,0.9375 --window-rule log:2 "
                    "--policy windowed-drain --horizon 1500 --seeds 2"),
    ("conserve-auto", "conserve --p 0.5 --lambdas 0.875,0.9375 --c-values 0,1,2 "
                      "--horizon 1000 --seeds 2"),
    ("simulate-trajectory", "simulate --p 0.5 --lambdas 0.875,0.9 --window-rule constant:2 "
                            "--policy windowed-drain --horizon 500 --seeds 2 --trajectory-csv"),
    ("analytic", "analytic --p 0.5 --lambdas 0.875,0.9375,0.96875"),
    ("excursion-set-q-ref", EXCURSION + " --q-ref 0.1"),
    # 2**64 + 5: a master seed of three SeedSequence words
    ("excursion-big-seed", EXCURSION + " --q-ref 0.1 --master-seed 18446744073709551621"),
    ("excursion-bd-oracle", EXCURSION + " --policy threshold:auto"),
    ("excursion-pilot-run", EXCURSION + " --policy windowed-drain"),
    ("diagnostic-threshold", DIAGNOSTIC + " --policy threshold:auto"),
    ("diagnostic-drain", DIAGNOSTIC + " --policy windowed-drain"),
    ("diagnostic-admit-all", DIAGNOSTIC + " --policy admit-all --q-ref 1.0"),
]

# configs printed after the demos, in the order they were added
LATER_CONFIGS = [
    # 3 tasks: at --workers 2 one worker runs two of them, the other one
    ("phase-uneven", "phase --p 0.5 --lambdas 0.9 --policy threshold:auto "
                     "--horizon 2000 --seeds 3"),
    # ~36k events a cell: the windowed-drain kernel's windows cross its
    # 2**15-event block edge
    ("phase-drain-blocks", "phase --p 0.5 --lambdas 0.9375 --window-rule log:8 "
                           "--policy windowed-drain --horizon 25000 --seeds 2"),
    # barrier (drift - epsilon) B + zeta + 4W = 2.0 exactly: e5 asks the
    # integer walk to go below -2, and a walk at -2 is no hit
    ("excursion-integer-barrier", "excursion --p 0.5 --lambdas 0.875 "
                                  "--window-rule constant:0.25 --k 8 --epsilon 0.125 "
                                  "--zeta 0.5 --phi 40 --q-ref 0 --n-samples 200 "
                                  "--per-sample-csv"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(out_dir: Path) -> dict[str, str]:
    return {str(f.relative_to(out_dir)): _sha256(f.read_bytes())
            for f in sorted(out_dir.rglob("*")) if f.is_file() and f.name != "manifest.json"}


def config_digests(tmp: Path, name: str, args: str, workers: int) -> dict[str, str] | None:
    """Digest of each output file of one config, or None if the run failed."""
    out = tmp / f"{name}_w{workers}"
    code = cli.main(args.split() + ["--workers", str(workers), "--out", str(out)])
    if code != cli.EXIT_OK:
        print(f"{name}: exit {code} at --workers {workers}", file=sys.stderr)
        return None
    return _digests(out)


def _run_configs(tmp: Path, configs: list[tuple[str, str]]) -> bool:
    same = True
    for name, args in configs:
        runs = [config_digests(tmp, name, args, workers) for workers in (1, 2)]
        if None in runs:
            return False
        for file, digest in runs[0].items():
            print(f"{digest}  {name}/{file}")
        if runs[0] != runs[1]:
            print(f"{name}: outputs differ between --workers 1 and 2", file=sys.stderr)
            same = False
    return same


def _run_demos(tmp: Path) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    ok = True
    for demo in sorted((ROOT / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env,
                              capture_output=True)
        if done.returncode:
            print(f"{demo.name}: exit {done.returncode}", file=sys.stderr)
            ok = False
        print(f"{_sha256(done.stdout)}  demos/{demo.name}:stdout")
    return ok


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qadmit-digests-") as tmp:
        ok = _run_configs(Path(tmp), CONFIGS)
        ok &= _run_demos(Path(tmp))
        ok &= _run_configs(Path(tmp), LATER_CONFIGS)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
