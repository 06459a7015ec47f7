"""Experiment harness: config-driven sweeps with reproducible fan-out.

``RunConfig`` is the one list of config fields and ``RUNNERS`` the one
list of experiment kinds (``simulate``, ``analytic``, ``excursion``,
``phase``, ``conserve``, ``diagnostic``), each mapped to the function that
writes its run directory.  Each kind is a subcommand taking
``--config <json>`` plus one flag per field, named after it (``--out`` for
``out_dir``); precedence is CLI > file > defaults.

Validation builds the plan, and ``run_config`` runs it.  ``validate_config``
checks each value against its field's annotation, each lambda against the
overload range (1 - p, 1) and the memory the run will hold at once, and
returns a sweep's cells or the excursion geometry with the source of an
unset `q_ref` (``excursion.q_ref_source``); it solves no birth-death law.
``run_config`` validates every config, one built in code too, before it
writes the manifest (the exact configuration, package version and master
seed); the run then solves each law once, one walk per distinct
``ModelParams`` giving its threshold:auto cells their x*, and a
`diagnostic` both x* and an unset `q_ref`.  A sweep's (cell, seed)
replications, and a `diagnostic`'s samples in one contiguous block of
indices per worker, run in up to `workers` forked processes
(``_fan_out``), each pinned to its own allowed CPU.  Every task is keyed by
its (cell, seed) or sample index and the results are joined in that order,
so outputs are byte-identical regardless of worker count.

``main`` is the one entry point that takes a config and the one place
that maps a failure to an exit code: 0 success, 1 runtime failure, 2 config
parse error, 3 validation error; failures print a one-line JSON object to
stderr.  ``config_from_mapping`` and ``run_config`` are the two steps it
runs, for callers that build a config in code.
"""

from __future__ import annotations

import csv
import ctypes  # numpy imports it already
import dataclasses
import json
import math
import os
import pickle
import sys
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analytic import closed_form_threshold, online_scaling_table
from .errors import ConfigurationError
from .excursion import (
    DEFAULT_PILOT_HORIZON,
    MIN_EVENT_SAMPLES,
    ExcursionConfig,
    default_warmup_time,
    diagnostic_report,
    diagnostic_samples,
    estimate_event_probs,
    q_ref_source,
    reference_queue,
)
from .policy import min_feasible_law, min_feasible_threshold, parse_policy_spec
from .sim import DEFAULT_BURN_IN, run_simulation
from .stream import (
    MAX_REPLICATIONS,
    ModelParams,
    generate_stream,
    log_scale,
    overloaded,
    replication_seed,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


@dataclass
class RunConfig:
    """One experiment's full description; JSON keys mirror the field names.

    ``policy`` defaults to ``threshold:auto``; a ``conserve`` config from JSON or
    flags defaults to ``auto``, which a RunConfig built in code must pass itself.
    """

    kind: str
    p: float
    lambdas: tuple[float, ...]
    window_rule: str = "zero"
    policy: str = "threshold:auto"
    horizon: float = 100_000.0
    seeds: int = 8
    master_seed: int = 0
    out_dir: str = "qadmit-out"
    q0: int = 0
    burn_in: float = DEFAULT_BURN_IN
    workers: int | None = None
    n_samples: int = 1000
    k: float = 1.0
    epsilon: float = 0.05
    zeta: float = 1.0
    phi: float = 1.0
    q_ref: float | None = None
    c_values: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0)
    per_sample_csv: bool = False
    trajectory_csv: bool = False


def _field_type(hint) -> tuple[type, bool, bool]:
    """(element type, is a list, may be None) of a RunConfig annotation."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return args[0], True, False
    if args:  # `T | None`
        return args[0], False, True
    return hint, False, False


# every RunConfig field in declaration order, which the flags follow
_FIELD_TYPES = {name: _field_type(hint) for name, hint in typing.get_type_hints(RunConfig).items()}
_REQUIRED_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig)
                         if f.default is dataclasses.MISSING)
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a finite number", bool: "true or false"}


def _is_a(value, typ: type) -> bool:
    """Whether a JSON value holds a `typ`; a bool is no number, an int in float range a float."""
    if typ is float:
        if type(value) is int:
            return abs(value) <= sys.float_info.max
        return isinstance(value, float) and math.isfinite(value)
    if typ is int:
        return type(value) is int
    return isinstance(value, typ)


def _check_type(name: str, value) -> None:
    typ, many, nullable = _FIELD_TYPES[name]
    if value is None and nullable:
        return
    if many:
        ok = isinstance(value, (list, tuple)) and all(_is_a(v, typ) for v in value)
    else:
        ok = _is_a(value, typ)
    if not ok:
        what = "a list of numbers" if many else _TYPE_NAMES[typ] + (" or null" if nullable else "")
        raise ConfigurationError(f"field `{name}` must be {what}, got {value!r}")


def config_from_mapping(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON mapping.

    Values keep the type they were given (`"k": 2` stays 2); list fields
    become float tuples once every entry is known to be a number.
    """
    for name in _REQUIRED_FIELDS:
        if name not in data:
            raise ConfigurationError(f"missing required field `{name}`")
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    if data["kind"] == "conserve" and "policy" not in data:
        data = data | {"policy": "auto"}  # pick by window: online at W=0, lookahead otherwise
    cfg = RunConfig(**data)
    validate_config(cfg)
    for name, (_, many, _) in _FIELD_TYPES.items():
        if many:
            setattr(cfg, name, tuple(float(v) for v in getattr(cfg, name)))
    return cfg


def validate_config(cfg: RunConfig):
    """Reject a config before any file is written; return the plan its run runs.

    The plan is a sweep's cells, the ``(ExcursionConfig, q_ref source)`` of
    `excursion` and `diagnostic`, or None for `analytic`; the laws its run
    will solve are counted (``_check_law``), not solved.  `kind` and `policy`
    are looked up by value, so a value of any other type is unknown; every
    other field's type is checked before its range.
    """
    if not isinstance(cfg.kind, str) or cfg.kind not in RUNNERS:
        raise ConfigurationError(f"unknown experiment kind `{cfg.kind}`")
    if not (cfg.kind == "conserve" and cfg.policy == "auto"):
        parse_policy_spec(cfg.policy)
    for name, value in vars(cfg).items():
        _check_type(name, value)
    if not (0.0 < cfg.p < 1.0):
        raise ConfigurationError(f"field `p` must be in (0,1), got {cfg.p}")
    if not cfg.lambdas:
        raise ConfigurationError("field `lambdas` must be a non-empty list")
    if cfg.kind in ("excursion", "diagnostic") and len(cfg.lambdas) > 1:
        raise ConfigurationError(f"kind `{cfg.kind}` takes one lambda, got {len(cfg.lambdas)}")
    if not all(overloaded(lam, cfg.p) for lam in cfg.lambdas):
        raise ConfigurationError(
            f"field `lambdas` must lie in ({1.0 - cfg.p}, 1) for kind `{cfg.kind}`")
    _parse_window_rule(cfg.window_rule)
    # q0 <= 2**62: then q0 plus the events of any stream the memory rule lets in fit int64
    for name, what, ok in (
        ("seeds", ">= 1", cfg.seeds >= 1), ("master_seed", ">= 0", cfg.master_seed >= 0),
        ("horizon", "positive", cfg.horizon > 0), ("burn_in", "in [0,1)", 0.0 <= cfg.burn_in < 1.0),
        ("q0", ">= 0", cfg.q0 >= 0), ("q0", "<= 2**62", cfg.q0 <= 2**62),
        ("workers", ">= 1", cfg.workers is None or cfg.workers >= 1),
    ):
        if not ok:
            raise ConfigurationError(f"field `{name}` must be {what}, got {getattr(cfg, name)}")
    if any(c < 0 for c in cfg.c_values):
        raise ConfigurationError("field `c_values` must be nonnegative")
    if cfg.kind == "conserve" and not cfg.c_values:
        raise ConfigurationError("field `c_values` must be a non-empty list for kind `conserve`")
    if cfg.kind == "analytic":
        _check_law("threshold:auto", cfg.lambdas, cfg.p)  # one lambda at a time
        return None
    if cfg.kind in ("excursion", "diagnostic"):
        least = MIN_EVENT_SAMPLES if cfg.kind == "excursion" else 1
        if not least <= cfg.n_samples <= MAX_REPLICATIONS:  # sample i is replication i
            raise ConfigurationError(f"field `n_samples` must be in [{least}, 2**32] for kind "
                                     f"`{cfg.kind}`, got {cfg.n_samples}")
        # each of a `diagnostic`'s workers runs one sample at a time, and
        # `excursion`'s samples run serially: the peak is the larger of one
        # sample's stream (its base path, after a warm-up for `diagnostic`) per
        # worker and the pilot run that resolves an unset q_ref before any fork
        plan = config, source = _excursion_config(cfg)
        horizon, workers = config.horizon_needed, 1
        if cfg.kind == "diagnostic":
            horizon += default_warmup_time(config) + config.window
            workers = _pool_size(cfg, cfg.n_samples)
        held = horizon * workers  # stream time held at once
        if source == "pilot-run":
            held = max(held, DEFAULT_PILOT_HORIZON + config.window)
        events = config.params.total_rate * held
        _check_memory(events * PEAK_BYTES_PER_EVENT,
                      f"`{cfg.kind}` streams of ~{events:.3g} events at once",
                      "`phi`, `k`, the window or `workers`" if workers > 1
                      else "`phi`, `k` or the window")
        # a threshold policy's law gives an unset q_ref, and threshold:auto's
        # gives x* to every diagnostic; it is solved before any sample runs
        if source == "bd-oracle" or (cfg.kind == "diagnostic" and cfg.policy == "threshold:auto"):
            _check_law(cfg.policy, cfg.lambdas, cfg.p)
        return plan
    # the largest cell's expected events, (lambda + 1 - p) * (horizon + W),
    # times the cells run at once, plus what the parent holds per task
    cells = (_conserve_cells if cfg.kind == "conserve" else _rule_cells)(cfg)
    events = max((c["lambda"] + 1.0 - c["p"]) * (cfg.horizon + c["window"]) for c in cells)
    tasks = len(cells) * cfg.seeds
    workers = _pool_size(cfg, tasks)
    # ``_run_grid`` solves each threshold:auto law alone, before any stream exists
    auto = [c["lambda"] for c in cells if c["policy"] == "threshold:auto"]
    if auto:
        _check_law("threshold:auto", auto, cfg.p)
    _check_memory(events * workers * PEAK_BYTES_PER_EVENT + tasks * PARENT_BYTES_PER_TASK,
                  f"{workers} cells of ~{events:.3g} events at once and {tasks} (cell, seed) "
                  "results", "`horizon`, `workers` or `seeds`")
    return cells


def _check_law(policy: str, lambdas, p: float) -> None:
    """Reject the largest birth-death law `policy` solves over `lambdas` if it cannot fit.

    A run solves its laws one at a time before any of its streams exists, a
    sweep's in the calling process before it forks.  An explicit threshold
    x solves x + 1 states.  threshold:auto walks to x* from
    ``closed_form_threshold``'s x_hat through laws of at most
    max(x_hat, x*) + 1 states, a few more than the x_hat + 1 counted here
    (at most 3 on every pair measured), which the margin of
    LAW_BYTES_PER_STATE over the measured ~41 bytes a state covers; a law
    small enough for that to fail takes a few KB.
    """
    _, x = parse_policy_spec(policy)
    if x is None:
        x = max(closed_form_threshold(ModelParams(lam, p)) for lam in lambdas)
    _check_memory((x + 1) * LAW_BYTES_PER_STATE,
                  f"the {x + 1} states of the birth-death law of `{policy}`",
                  "the threshold or set `q_ref`" if policy != "threshold:auto"
                  else "`lambdas` or raise `p`")


# Peak bytes per stream event of one simulated cell: the bound the tests hold
# windowed-drain to, whose peak sets it (tracemalloc: 43 at horizon 1e5 to 33 at
# 1e6, lambda = 1 - 2**-5); threshold:auto reads 25.8 and 25.3 (tested bound 28).
# Writing the trajectory CSV adds ~1 MB at most, one block of rows.
# A sweep worker keeps what its cells free, so it holds its largest cell's peak
# for the rest of its share, plus whatever freed memory its later cells fail
# to reuse: under 1 MB in the sweeps measured (2 workers' peak RSS 63.9 -> 64.6
# MB over 30 threshold:auto cells of horizon 1e6, flat over 100 of 1e5 each).
# Monte Carlo streams count at the same rate.
PEAK_BYTES_PER_EVENT = 48

# Peak bytes per state of `bd_stationary`'s law (tracemalloc: 40.7 at x = 1e5,
# 40.1 at 1e6), rounded up as the per-event bound is.
LAW_BYTES_PER_STATE = 48

# Bytes the parent of a sweep holds per (cell, seed) task: the task tuple, the
# summary row a worker returns and the CSV row built from it.  The bound the
# tests hold a `conserve` sweep to, whose rows are the widest (tracemalloc, 1500
# seeds of one cell: 1020; `phase` 972, `simulate` ~560 with no CSV rows).
PARENT_BYTES_PER_TASK = 1280


def _check_memory(peak: float, what: str, remedy: str) -> None:
    """Reject a run whose `what` would need `peak` bytes at once.

    Physical rather than available memory keeps the verdict deterministic;
    where os.sysconf cannot tell, nothing is checked.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if peak > memory:
        raise ConfigurationError(
            f"{what} need ~{peak / 2**30:.3g} GiB at peak, over the {memory / 2**30:.3g} GiB "
            f"of physical memory; lower {remedy}")


def _parse_window_rule(rule: str):
    """Rules: `zero`, `constant:<c>`, `log:<c>` (W = c * ln(1/(1-lambda)))."""
    if rule == "zero":
        return lambda lam: 0.0
    for prefix in ("constant:", "log:"):
        if rule.startswith(prefix):
            try:
                c = float(rule.removeprefix(prefix))
            except ValueError:
                raise ConfigurationError(f"bad window rule `{rule}`") from None
            if not 0 <= c < math.inf:
                raise ConfigurationError(
                    f"window rule coefficient must be finite and >= 0: `{rule}`")
            if prefix == "constant:":
                return lambda lam: c
            return lambda lam: c * log_scale(lam)
    raise ConfigurationError(f"bad window rule `{rule}` (use zero | constant:c | log:c)")


def _fmt(value) -> str:
    """Full round-trip numeric formatting for CSV cells; None and NaN are empty."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return str(int(value)) if isinstance(value, bool) else str(value)


def _write_rows(path: Path, header: list[str], rows) -> None:
    """A header line, then one line per row of cells; csv writes a float as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    _write_rows(path, header, ([_fmt(row[col]) for col in header] for row in rows))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(cfg: RunConfig, out_dir: Path) -> None:
    manifest = {
        "config": dataclasses.asdict(cfg),
        "version": f"qadmit {__version__}",
        "master_seed": cfg.master_seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out_dir / "manifest.json", manifest)


_SUMMARY_MEANS = (
    "n_events", "mean_queue_event", "mean_queue_time", "diversion_rate", "wasted_rate",
)


def _simulate_cell(task: tuple) -> dict:
    """One (cell, seed) simulation.

    Returns the seed's summary row.  With a trajectory directory set, the
    run's per-event path is written there as well.
    """
    cfg, cell_idx, rep_idx, cell, trajectory_dir = task
    stream = generate_stream(
        ModelParams(cell["lambda"], cell["p"], cell["window"]),
        cfg.horizon + cell["window"],
        replication_seed(cfg.master_seed, cell_idx, rep_idx),
    )
    traj, trace, m = run_simulation(
        stream, cell["policy"], q0=cfg.q0, t_end=cfg.horizon, burn_in=cfg.burn_in
    )
    if trajectory_dir is not None:
        n = m.n_events
        columns = (stream.times[:n], stream.marks[:n], trace.decisions,
                   traj.pre_event_queue, traj.post_event_queue)
        _write_rows(trajectory_dir / f"trajectory_lam{cell_idx}_seed{rep_idx}.csv",
                    ["n", "time", "mark", "H", "Q_pre", "Q_post"],
                    _trajectory_rows(columns, n))
    return {"seed": rep_idx} | {key: getattr(m, key) for key in _SUMMARY_MEANS}


# Rows of a trajectory CSV made into Python objects at once: whole columns as
# lists would cost ~60 B/event over the run's own arrays
_TRAJECTORY_BLOCK = 2**15


def _trajectory_rows(columns: tuple, n: int):
    """Rows ``(i, *column values)`` for i = 1..n, listed one block of rows at a time."""
    for start in range(0, n, _TRAJECTORY_BLOCK):
        stop = min(start + _TRAJECTORY_BLOCK, n)
        yield from zip(range(start + 1, stop + 1), *(c[start:stop].tolist() for c in columns))


def _pool_size(cfg: RunConfig, n_tasks: int) -> int:
    """How many tasks run at once: `workers`, at most one per CPU and one per task.

    A task is a sweep's (cell, seed) or a block of `diagnostic` samples.  All
    workers are forked at once, so more than the CPUs would only add
    processes; outputs do not depend on the count.
    """
    cpus = os.cpu_count() or 1
    return min(cfg.workers or cpus, cpus, n_tasks)


# glibc's mallopt parameters (malloc.h) and the largest mmap threshold it takes
# on a 64-bit host; a larger one is refused and changes nothing
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MAX_MMAP_THRESHOLD = 32 * 2**20


def _keep_freed_memory() -> None:
    """Have this process's malloc keep the blocks it frees for its next allocations.

    By default glibc gives each freed block of 128 KiB or more back to the
    kernel, so the next task's arrays of that size are faulted in afresh,
    page by page.  An mmap threshold at its maximum puts such blocks on the
    heap, and a trim threshold of 1 GiB keeps the heap's freed top; both are
    needed, since setting either one turns off glibc's dynamic threshold.
    Where libc has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to load, or one without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MAX_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2**30)


def _pin_to_cpu(k: int) -> None:
    """Run this process on the k-th (cyclically) of the CPUs it may run on.

    Linux often leaves a freshly forked process on its parent's CPU, so
    without this a pool's workers may share one CPU while another idles.
    Where ``os.sched_setaffinity`` is missing or refuses, the process stays
    unpinned: no output depends on where it runs.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, (cpus[k % len(cpus)],))
    except OSError:
        pass


def _run_share(fn, share: list, k: int, writer) -> typing.NoReturn:
    """Worker k's whole life: run `share` in order, send what came of it, exit.

    It first pins itself to its own CPU (``_pin_to_cpu``) for the rest of
    its life, and keeps the memory its tasks free (``_keep_freed_memory``): every
    task of a sweep allocates arrays of the same few sizes, so a task reuses
    the pages the one before it touched instead of faulting them in again,
    and the worker's resident set stays at its largest task's.  Only a
    worker does this, since it lives for its share alone.
    It sends ``(results, None)``, or ``(tasks finished, exception)`` once a
    task raises.  It always leaves through ``os._exit``, so it never returns
    into the parent's stack, runs no exit handlers and flushes no inherited
    buffers.
    """
    code = 1
    try:
        _pin_to_cpu(k)
        _keep_freed_memory()
        results = []
        try:
            for task in share:
                results.append(fn(task))
            payload = (results, None)
        except BaseException as exc:  # noqa: BLE001 - sent to the parent, which raises it
            payload = (len(results), exc)
        try:
            data = pickle.dumps(payload)
            if payload[1] is not None:
                pickle.loads(data)  # an exception may pickle and still fail to unpickle
        except Exception as err:  # noqa: BLE001 - reported in the parent as a RuntimeError
            what = "results" if payload[1] is None else type(payload[1]).__name__
            data = pickle.dumps((len(results), RuntimeError(
                f"a sweep task's {what} cannot be pickled: {err!r}")))
        writer.write(data)
        writer.close()
        code = 0
    finally:
        os._exit(code)


def _read_share(k: int, reader) -> tuple:
    """Worker k's payload; a worker that sent nothing whole died first."""
    try:
        return pickle.loads(reader.read())
    except (EOFError, pickle.UnpicklingError):
        return 0, RuntimeError(f"sweep worker {k} died")


def _fan_out(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, computed by `workers` forked processes.

    Worker k runs ``tasks[k::workers]`` (``_run_share``), pinned to the k-th
    (cyclically) of the CPUs the calling process may run on, so that the
    workers start on distinct CPUs and not stacked on the parent's; it
    pickles what came of it into a pipe of its own.  The calling process
    runs no task, since its resident set already holds every page touched at
    import and a task's streams would add to that peak: it only forks, reads
    each pipe to its end and reaps every worker, and keeps its allocator's
    defaults and its CPU affinity, since it outlives the pool.  A task's
    exception is raised here with its own type and message; when several
    tasks raise, the first in task order wins, as it would serially.
    Where ``os.fork`` is missing, or for one worker, the tasks run here, in
    order, with the allocator and affinity as they are.
    """
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    readers, pids = [], []
    try:
        for k in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as writer:  # the parent's copy closes after the fork
                pid = os.fork()
                if pid == 0:
                    for reader in readers:  # the parent's reader is then the only one
                        reader.close()
                    _run_share(fn, tasks[k::workers], k, writer)
            pids.append(pid)
        shares = [_read_share(k, reader) for k, reader in enumerate(readers)]
    finally:
        for reader in readers:  # a worker still writing then fails and exits
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)
    failures = [(k + done * workers, exc) for k, (done, exc) in enumerate(shares)
                if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(tasks)
    for k, (share, _) in enumerate(shares):
        results[k::workers] = share
    return results


def _run_grid(cfg: RunConfig, cells: list[dict],
              trajectory_dir: Path | None = None) -> list[list[dict]]:
    """Run `cfg.seeds` replications of each cell.

    A cell is the dict of base columns its rows start from: `lambda`, `p`,
    `window` and `policy`, plus `window_rule` or `c` for the sweep's kind.

    Returns the summary rows grouped by cell, in seed order.  Each task is
    seeded by its (cell, seed) index and ``_fan_out`` keeps task order, so
    the results do not depend on the worker count.  A threshold:auto cell's
    tasks run ``threshold:x=<x*>``, its x* found here before any fork, once
    for all the cells of one ``ModelParams``.
    """
    tasks = []
    thresholds: dict[ModelParams, int] = {}
    for ci, cell in enumerate(cells):
        if cell["policy"] == "threshold:auto":
            params = ModelParams(cell["lambda"], cell["p"], cell["window"])
            if params not in thresholds:
                thresholds[params] = min_feasible_threshold(params)
            cell = cell | {"policy": f"threshold:x={thresholds[params]}"}
        tasks += [(cfg, ci, ri, cell, trajectory_dir) for ri in range(cfg.seeds)]
    results = _fan_out(_simulate_cell, tasks, _pool_size(cfg, len(tasks)))
    return [results[ci * cfg.seeds : (ci + 1) * cfg.seeds] for ci in range(len(cells))]


def _cell_rows(base: dict, results: list[dict]) -> list[dict]:
    """A cell's per-seed rows, then its aggregate row of seed means.

    The aggregate row carries a 95% halfwidth for the mean queue (none for
    a single seed).
    """
    n = len(results)
    agg = {key: sum(r[key] for r in results) / n for key in _SUMMARY_MEANS}
    halfwidth = None
    if n >= 2:
        mean = agg["mean_queue_event"]
        var = sum((r["mean_queue_event"] - mean) ** 2 for r in results) / (n - 1)
        halfwidth = 1.96 * math.sqrt(var / n)
    rows = [base | r | {"ci_halfwidth": None, "aggregate_flag": 0} for r in results]
    rows.append(base | agg | {"seed": None, "ci_halfwidth": halfwidth, "aggregate_flag": 1})
    return rows


PHASE_COLUMNS = [
    "lambda", "p", "window_rule", "window", "policy", "seed", "n_events",
    "mean_queue_event", "mean_queue_time", "diversion_rate", "wasted_rate",
    "ci_halfwidth", "aggregate_flag",
]


def _rule_cells(cfg: RunConfig) -> list[dict]:
    """One cell per lambda, its window set by `cfg.window_rule`."""
    rule = _parse_window_rule(cfg.window_rule)
    return [{"lambda": lam, "p": cfg.p, "window_rule": cfg.window_rule, "window": rule(lam),
             "policy": cfg.policy} for lam in cfg.lambdas]


def phase_sweep(cfg: RunConfig) -> list[dict]:
    """Per-(lambda, seed) simulation rows plus one aggregate row per cell, once `cfg` validates."""
    cells = validate_config(cfg)
    rows: list[dict] = []
    for cell, results in zip(cells, _run_grid(cfg, cells)):
        rows += _cell_rows(cell, results)
    return rows


CONSERVE_COLUMNS = [
    "lambda", "p", "c", "window", "policy", "seed", "n_events",
    "mean_queue_event", "q_plus_w", "ratio", "ci_halfwidth", "aggregate_flag",
]


def _conserve_cells(cfg: RunConfig) -> list[dict]:
    """One cell per (lambda, c), with window c * ln(1/(1-lambda))."""
    cells = []
    for lam in cfg.lambdas:
        for c in cfg.c_values:
            window = c * log_scale(lam)
            policy = cfg.policy
            if policy == "auto":
                policy = "threshold:auto" if window == 0.0 else "windowed-drain"
            cells.append({"lambda": lam, "p": cfg.p, "c": c, "window": window, "policy": policy})
    return cells


def conservation_sweep(cfg: RunConfig) -> list[dict]:
    """Mean queue plus window against the log term, over a (lambda, c) grid.

    With the policy set to ``auto``, zero-window cells run the online
    threshold policy and positive windows run the lookahead heuristic.
    The cells are the plan ``validate_config`` returns.
    """
    cells = validate_config(cfg)
    rows: list[dict] = []
    ratios_by_lambda: dict[float, list[float]] = {}
    for cell, results in zip(cells, _run_grid(cfg, cells)):
        for row in _cell_rows(cell, results):
            row["q_plus_w"] = row["mean_queue_event"] + cell["window"]
            row["ratio"] = row["q_plus_w"] / log_scale(cell["lambda"])
            rows.append(row)
        ratios_by_lambda.setdefault(cell["lambda"], []).append(rows[-1]["ratio"])  # aggregate's
    for lam, ratios in sorted(ratios_by_lambda.items()):
        rows.append(dict.fromkeys(CONSERVE_COLUMNS) | {
            "lambda": lam, "p": cfg.p, "c": "min", "policy": cfg.policy, "ratio": min(ratios),
            "aggregate_flag": 2})
    return rows


_PLOT_STUB = """\
#!/usr/bin/env python3
# Auto-generated plotting stub: reads {csv_name} and draws the aggregate rows.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open({csv_name!r}) as fh:
    for row in csv.DictReader(fh):
        if row["aggregate_flag"] == "1" and row["{y_col}"]:
            series[row.get("{group_col}", "")].append(
                (float(row["lambda"]), float(row["{y_col}"]))
            )
for label, pts in sorted(series.items()):
    pts.sort()
    plt.plot([x for x, _ in pts], [y for _, y in pts], marker="o",
             label=f"{group_col}={{label}}")
plt.xlabel("lambda")
plt.ylabel("{y_col}")
plt.legend()
plt.show()
"""


def _write_sweep(out_dir: Path, name: str, columns: list[str], rows: list[dict],
                 y_col: str, group_col: str) -> None:
    """A sweep's `<name>.csv` and the `plot_<name>.py` stub that draws its aggregates."""
    _write_csv(out_dir / f"{name}.csv", columns, rows)
    stub = _PLOT_STUB.format(csv_name=f"{name}.csv", y_col=y_col, group_col=group_col)
    (out_dir / f"plot_{name}.py").write_text(stub)


def _run_simulate(cfg: RunConfig, out_dir: Path, cells: list[dict]) -> None:
    grouped = _run_grid(cfg, cells, out_dir if cfg.trajectory_csv else None)
    for li, (cell, results) in enumerate(zip(cells, grouped)):
        del cell["window_rule"]  # a run summary echoes its window, not the rule
        for r in results:
            _write_json(out_dir / f"run_lam{li}_seed{r['seed']}.json", cell | {"q0": cfg.q0} | r)


def _run_analytic(cfg: RunConfig, out_dir: Path, _) -> None:
    rows = [dataclasses.asdict(r) | {"lambda": r.arrival_rate}
            for r in online_scaling_table(cfg.p, cfg.lambdas)]
    _write_csv(out_dir / "scaling.csv",
               ["lambda", "x_star", "q_opt", "log_term", "ratio", "diversion_rate"], rows)


def _run_phase(cfg: RunConfig, out_dir: Path, _) -> None:  # phase_sweep validates cfg itself
    rows = phase_sweep(cfg)
    _write_sweep(out_dir, "phase", PHASE_COLUMNS, rows, "mean_queue_event", "window_rule")


def _run_conserve(cfg: RunConfig, out_dir: Path, _) -> None:
    _write_sweep(out_dir, "conserve", CONSERVE_COLUMNS, conservation_sweep(cfg), "ratio", "c")


def _excursion_config(cfg: RunConfig) -> tuple[ExcursionConfig, str]:
    """Base-path geometry of the single lambda, and where its q_ref comes from.

    An unset q_ref is held at 0.0 (only the barrier reads it) until the run sets it.
    """
    lam = cfg.lambdas[0]
    params = ModelParams(lam, cfg.p, _parse_window_rule(cfg.window_rule)(lam))
    source = "config" if cfg.q_ref is not None else q_ref_source(cfg.policy)
    return ExcursionConfig(params=params, k=cfg.k, epsilon=cfg.epsilon, zeta=cfg.zeta,
                           phi=cfg.phi, q_ref=cfg.q_ref or 0.0), source


def _excursion_run(cfg: RunConfig, config: ExcursionConfig) -> tuple[ExcursionConfig, str]:
    """The geometry with q_ref set and the policy a diagnostic runs, from at most one law."""
    spec, q_ref = cfg.policy, cfg.q_ref
    if cfg.kind == "diagnostic" and spec == "threshold:auto":
        law = min_feasible_law(config.params)
        spec = f"threshold:x={law.threshold}"
        q_ref = law.mean_queue if q_ref is None else q_ref
    if q_ref is None:
        q_ref, _ = reference_queue(config.params, spec, seed=cfg.master_seed)
    return dataclasses.replace(config, q_ref=q_ref), spec


PER_SAMPLE_COLUMNS = ["sample", "e1", "e3", "e4", "e5", "z", "Y", "V", "J", "L0"]
DIAGNOSTIC_COLUMNS = ["sample", "e1", "e2", "e3", "e4", "e5", "z", "Y", "V", "J", "L0", "Q0"]


def _run_excursion(cfg: RunConfig, out_dir: Path, plan: tuple[ExcursionConfig, str]) -> None:
    config, _ = _excursion_run(cfg, plan[0])
    report, indicators = estimate_event_probs(config, cfg.n_samples, cfg.master_seed)
    payload = dataclasses.asdict(report) | {
        "lambda": cfg.lambdas[0], "p": cfg.p, "window": config.params.window,
        "k": cfg.k, "epsilon": cfg.epsilon, "zeta": cfg.zeta, "phi": cfg.phi, "q_ref": config.q_ref,
    }
    for estimate in payload["estimates"].values():
        del estimate["name"]
    _write_json(out_dir / "excursion.json", payload)
    if cfg.per_sample_csv:
        # z is not recorded per sample, and Y, V, J, L0 need a policy
        empty = [""] * (len(PER_SAMPLE_COLUMNS) - 5)
        _write_rows(out_dir / "excursion_samples.csv", PER_SAMPLE_COLUMNS,
                    ([i, *r, *empty] for i, r in enumerate(indicators.astype(int).tolist())))


def _run_diagnostic(cfg: RunConfig, out_dir: Path, plan: tuple[ExcursionConfig, str]) -> None:
    """The samples run as one contiguous block of indices per worker, joined in index order.

    The pilot run and the x* walk of ``_excursion_run`` stay in the calling
    process, before any worker forks.
    """
    config, spec = _excursion_run(cfg, plan[0])
    n, workers = cfg.n_samples, _pool_size(cfg, cfg.n_samples)
    bounds = [n * k // workers for k in range(workers + 1)]

    def block(k: int) -> list[dict]:
        first = bounds[k]
        return diagnostic_samples(config, spec, bounds[k + 1] - first, cfg.master_seed, first)

    rows = [row for share in _fan_out(block, list(range(workers)), workers) for row in share]
    report = diagnostic_report(config, spec, rows)
    payload = dataclasses.asdict(report) | {
        "lambda": cfg.lambdas[0], "p": cfg.p, "window": config.params.window,
        "policy": cfg.policy, "q_ref_source": plan[1],  # the policy as given, not its x*
    }
    _write_json(out_dir / "diagnostic.json", payload)
    if cfg.per_sample_csv:
        _write_csv(out_dir / "diagnostic_samples.csv", DIAGNOSTIC_COLUMNS, rows)


# The experiment kinds, each with the runner that fills its run directory from
# the config and its plan.  A runner looks up the library functions it calls
# (phase_sweep, estimate_event_probs, ...) as module globals when it runs.
RUNNERS = {
    "simulate": _run_simulate,
    "analytic": _run_analytic,
    "excursion": _run_excursion,
    "phase": _run_phase,
    "conserve": _run_conserve,
    "diagnostic": _run_diagnostic,
}


def run_config(cfg: RunConfig) -> int:
    """Validate a config, then run its plan in its run directory; returns an exit code."""
    plan = validate_config(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(cfg, out_dir)
    RUNNERS[cfg.kind](cfg, out_dir, plan)
    return EXIT_OK


def _read_config(path) -> dict:
    """The JSON object in a config file; OSError if unreadable, ValueError if not one."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"top level must be a JSON object, not {type(data).__name__}")
    return data


def _fail(message: str, code: int) -> int:
    """Report a failure as a one-line JSON object on stderr; returns its exit code."""
    print(json.dumps({"error": message, "exit": code}), file=sys.stderr)
    return code


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _add_field_args(sub) -> None:
    """`--config`, then a flag per field but `kind` (`--out` for `out_dir`), on a subparser."""
    sub.add_argument("--config", help="JSON config file")
    for name, (typ, many, _) in _FIELD_TYPES.items():
        if name == "kind":
            continue
        flag = "--out" if name == "out_dir" else "--" + name.replace("_", "-")
        if typ is bool:
            sub.add_argument(flag, dest=name, action="store_true", default=None)
        elif many:
            sub.add_argument(flag, dest=name, type=_float_list, help="comma-separated numbers")
        else:
            sub.add_argument(flag, dest=name, type=typ)


def main(argv=None) -> int:
    import argparse  # only the command line parses flags

    parser = argparse.ArgumentParser(
        prog="qadmit",
        description="Admission-control queueing experiments (simulation, oracles, excursions).",
    )
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in RUNNERS:
        _add_field_args(subparsers.add_parser(kind))
    args = vars(parser.parse_args(argv))

    data: dict = {}
    if config := args.pop("config"):
        try:
            data = _read_config(config)
        except OSError as exc:
            return _fail(f"cannot read config: {exc}", EXIT_PARSE)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            return _fail(f"config parse error: {exc}", EXIT_PARSE)
        if "kind" in data and data["kind"] != args["kind"]:
            return _fail(f"config kind `{data['kind']}` differs from the subcommand "
                         f"`{args['kind']}`", EXIT_VALIDATION)
    data |= {key: value for key, value in args.items() if value is not None}
    try:
        cfg = config_from_mapping(data)
    except (ConfigurationError, TypeError) as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    try:
        return run_config(cfg)
    except ConfigurationError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except Exception as exc:  # noqa: BLE001 - harness boundary
        return _fail(f"runtime error: {exc}", EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
