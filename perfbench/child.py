"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/child.py <mode> <t0> <src> <config-json> [<spans-file>]

``mode`` is ``plain`` (untraced), ``count`` (counting wrappers only) or
``trace`` (spans, counts and invariant checks; see ``tracer.py``).  ``t0``
is the parent's ``time.monotonic()`` just before it started this process,
so ``setup_s`` runs from interpreter start to the moment ``run_config``
could be called.  The last stdout line is one JSON object; the output
rows are returned in it and the run directory is removed.
"""

import json
import os
import resource
import shutil
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def calibrate(numpy) -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    It uses nothing from qadmit, so its time follows only the speed of the
    host at that moment; run.py scales each repetition's times by it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(450_000):
        total += i % 7
    a = numpy.arange(200_000, dtype=numpy.float64)
    for _ in range(45):
        a = numpy.sqrt(a + 1.0)
    return time.perf_counter() - start


def _read_rows(out_dir: str, kind: str) -> dict:
    """Output files split into rows; each row keeps its line terminator's '\\r'."""
    names = ["phase.csv"] if kind == "phase" else ["excursion_samples.csv", "excursion.json"]
    rows = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read().decode()
        if name.endswith(".json"):
            rows[name] = [data]  # the whole summary is one row
        else:
            lines = data.split("\n")
            if lines and lines[-1] == "":
                lines.pop()
            rows[name] = lines
    return rows


def main() -> int:
    mode, t0, src, mapping = sys.argv[1], float(sys.argv[2]), sys.argv[3], json.loads(sys.argv[4])
    sys.path.insert(0, src)
    import numpy
    import qadmit.cli as cli

    cfg = cli.config_from_mapping(mapping)
    setup_s = time.monotonic() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"qadmit imported from {cli.__file__}, not from {src}")
    tracer = None
    if mode != "plain":
        from tracer import Tracer

        tracer = Tracer(check=(mode == "trace"))
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter_ns()
    if tracer is not None:
        code = tracer.call("cli.run_config", cli.run_config, cfg)
    else:
        code = cli.run_config(cfg)
    wall_ns = time.perf_counter_ns() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "exit": code,
        "setup_s": setup_s,
        "wall_s": wall_ns / 1e9,
        "cpu_self_s": _cpu(self1) - _cpu(self0),
        "cpu_children_s": _cpu(child1) - _cpu(child0),
        "maxrss_kb": max(self1.ru_maxrss, child1.ru_maxrss),
        "calib_s": calibrate(numpy),  # after the rusage reads, so it adds to no metric
        "numpy": numpy.__version__,
        "rows": _read_rows(cfg.out_dir, cfg.kind),
    }
    shutil.rmtree(cfg.out_dir)
    if tracer is not None:
        result["counts"] = tracer.counts()
        if mode == "trace":
            result["layers"] = tracer.layer_metrics()
            result["checks"] = tracer.check_results()
            tracer.write_spans(sys.argv[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
