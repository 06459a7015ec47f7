"""Experiment harness: config-driven sweeps with reproducible fan-out.

Subcommands ``simulate``, ``analytic``, ``excursion``, ``phase``,
``conserve``, ``diagnostic`` each accept ``--config <json>`` plus field
overrides (CLI > file > defaults).  Every run directory receives a
manifest echoing the exact configuration, the package version, and the
master seed.  Replications are keyed by (cell, seed) index, so results are
byte-identical regardless of worker count.

Exit codes: 0 success, 1 runtime failure, 2 config parse error,
3 validation error; failures print a one-line JSON object to stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

from .analytic import online_scaling_table
from .errors import ConfigurationError
from .excursion import (
    MIN_EVENT_SAMPLES,
    ExcursionConfig,
    diversion_idling_diagnostic,
    estimate_event_probs,
    reference_queue,
)
from .policy import parse_policy_spec
from .sim import run_simulation
from .stream import ModelParams, generate_stream, replication_seed

logger = logging.getLogger("qadmit")

EXPERIMENT_KINDS = ("simulate", "analytic", "excursion", "phase", "conserve", "diagnostic")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


@dataclass
class RunConfig:
    """One experiment's full description; JSON keys mirror the field names."""

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
    burn_in: float = 0.1
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


_REQUIRED_FIELDS = ("kind", "p", "lambdas")


def config_from_mapping(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON mapping."""
    for name in _REQUIRED_FIELDS:
        if name not in data:
            raise ConfigurationError(f"missing required field `{name}`")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    if data.get("kind") == "conserve" and "policy" not in data:
        data = data | {"policy": "auto"}  # pick by window: online at W=0, lookahead otherwise
    cfg = RunConfig(**{k: _coerce(k, v) for k, v in data.items()})
    validate_config(cfg)
    return cfg


def _coerce(key: str, value):
    if key in ("lambdas", "c_values"):
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"field `{key}` must be a list of numbers")
        return tuple(float(v) for v in value)
    return value


def validate_config(cfg: RunConfig) -> None:
    if cfg.kind not in EXPERIMENT_KINDS:
        raise ConfigurationError(f"unknown experiment kind `{cfg.kind}`")
    if not (0.0 < cfg.p < 1.0):
        raise ConfigurationError(f"field `p` must be in (0,1), got {cfg.p}")
    if not cfg.lambdas:
        raise ConfigurationError("field `lambdas` must be a non-empty list")
    feasible = [lam for lam in cfg.lambdas if 1.0 - cfg.p < lam < 1.0]
    if cfg.kind in ("phase", "conserve"):
        if not feasible:
            raise ConfigurationError("field `lambdas` has no overload-feasible entries")
    elif cfg.kind in ("excursion", "diagnostic") and len(cfg.lambdas) > 1:
        raise ConfigurationError(
            f"kind `{cfg.kind}` takes one lambda, got {len(cfg.lambdas)}"
        )
    elif len(feasible) != len(cfg.lambdas):
        raise ConfigurationError(
            f"field `lambdas` must lie in ({1.0 - cfg.p}, 1) for kind `{cfg.kind}`"
        )
    _parse_window_rule(cfg.window_rule)
    if not (cfg.kind == "conserve" and cfg.policy == "auto"):
        parse_policy_spec(cfg.policy)
    if cfg.seeds < 1:
        raise ConfigurationError(f"field `seeds` must be >= 1, got {cfg.seeds}")
    if cfg.horizon <= 0 or not math.isfinite(cfg.horizon):
        raise ConfigurationError(f"field `horizon` must be positive, got {cfg.horizon}")
    if not (0.0 <= cfg.burn_in < 1.0):
        raise ConfigurationError(f"field `burn_in` must be in [0,1), got {cfg.burn_in}")
    if cfg.q0 < 0:
        raise ConfigurationError(f"field `q0` must be >= 0, got {cfg.q0}")
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigurationError(f"field `workers` must be >= 1, got {cfg.workers}")
    if any(c < 0 for c in cfg.c_values):
        raise ConfigurationError("field `c_values` must be nonnegative")
    if cfg.kind in ("excursion", "diagnostic"):
        least = MIN_EVENT_SAMPLES if cfg.kind == "excursion" else 1
        if cfg.n_samples < least:
            raise ConfigurationError(
                f"field `n_samples` must be >= {least} for kind `{cfg.kind}`, got {cfg.n_samples}"
            )
        # an unset q_ref is resolved at run time to a value >= 0
        _excursion_geometry(cfg, 0.0 if cfg.q_ref is None else cfg.q_ref)


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
            if c < 0:
                raise ConfigurationError(f"window rule coefficient must be >= 0: `{rule}`")
            if prefix == "constant:":
                return lambda lam: c
            return lambda lam: c * math.log(1.0 / (1.0 - lam))
    raise ConfigurationError(f"bad window rule `{rule}` (use zero | constant:c | log:c)")


def _fmt(value) -> str:
    """Full round-trip numeric formatting for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[col]) if col in row else "" for col in header])


def _version_string() -> str:
    try:
        version = metadata.version("qadmit")
    except metadata.PackageNotFoundError:
        version = "0+unknown"
    describe = ""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            describe = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"qadmit {version}" + (f" ({describe})" if describe else "")


def _write_manifest(cfg: RunConfig, out_dir: Path) -> None:
    manifest = {
        "config": dataclasses.asdict(cfg),
        "version": _version_string(),
        "master_seed": cfg.master_seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _simulate_cell(task: tuple) -> dict:
    """One (cell, seed) simulation; module-level so worker pools can pickle it.

    Returns the seed's summary row.  With a trajectory directory set, the
    run's per-event path is written there as well.
    """
    cfg, cell_idx, rep_idx, (lam, window, policy), trajectory_dir = task
    stream = generate_stream(
        ModelParams(lam, cfg.p, window),
        cfg.horizon + window,
        replication_seed(cfg.master_seed, cell_idx, rep_idx),
    )
    traj, trace, m = run_simulation(
        stream, policy, q0=cfg.q0, t_end=cfg.horizon, burn_in=cfg.burn_in
    )
    if trajectory_dir is not None:
        rows = [
            {
                "n": i + 1,
                "time": float(stream.times[i]),
                "mark": int(stream.marks[i]),
                "H": int(trace.decisions[i]),
                "Q_pre": int(traj.pre_event_queue[i]),
                "Q_post": int(traj.post_event_queue[i]),
            }
            for i in range(traj.pre_event_queue.size)
        ]
        _write_csv(trajectory_dir / f"trajectory_lam{cell_idx}_seed{rep_idx}.csv",
                   ["n", "time", "mark", "H", "Q_pre", "Q_post"], rows)
    return {
        "seed": rep_idx,
        "n_events": m.n_events,
        "mean_queue_event": m.mean_queue_event,
        "mean_queue_time": m.mean_queue_time,
        "diversion_rate": m.diversion_rate,
        "wasted_rate": m.wasted_rate,
    }


def _run_grid(cfg: RunConfig, cells: list[tuple[float, float, str]],
              trajectory_dir: Path | None = None) -> list[list[dict]]:
    """Run `cfg.seeds` replications of each (lambda, window, policy) cell.

    Returns the summary rows grouped by cell, in seed order.  Each task is
    seeded by its (cell, seed) index and ``pool.map`` keeps task order, so
    the results do not depend on the worker count.
    """
    tasks = [
        (cfg, ci, ri, cell, trajectory_dir)
        for ci, cell in enumerate(cells)
        for ri in range(cfg.seeds)
    ]
    workers = min(cfg.workers or os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        results = [_simulate_cell(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_cell, tasks, chunksize=1))
    return [results[ci * cfg.seeds : (ci + 1) * cfg.seeds] for ci in range(len(cells))]


def _feasible_lambdas(cfg: RunConfig) -> list[float]:
    """The overload-feasible lambdas of a sweep; each one skipped is logged."""
    feasible = []
    for lam in cfg.lambdas:
        if 1.0 - cfg.p < lam < 1.0:
            feasible.append(lam)
        else:
            logger.warning("skipping infeasible cell lambda=%s (needs > %s)", lam, 1.0 - cfg.p)
    return feasible


_SUMMARY_MEANS = (
    "n_events", "mean_queue_event", "mean_queue_time", "diversion_rate", "wasted_rate",
)


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


def phase_sweep(cfg: RunConfig) -> list[dict]:
    """Per-(lambda, seed) simulation rows plus one aggregate row per cell."""
    rule = _parse_window_rule(cfg.window_rule)
    cells = [(lam, rule(lam), cfg.policy) for lam in _feasible_lambdas(cfg)]
    rows: list[dict] = []
    for (lam, window, policy), results in zip(cells, _run_grid(cfg, cells)):
        base = {
            "lambda": lam, "p": cfg.p, "window_rule": cfg.window_rule,
            "window": window, "policy": policy,
        }
        rows += _cell_rows(base, results)
    return rows


CONSERVE_COLUMNS = [
    "lambda", "p", "c", "window", "policy", "seed", "n_events",
    "mean_queue_event", "q_plus_w", "ratio", "ci_halfwidth", "aggregate_flag",
]


def conservation_sweep(cfg: RunConfig) -> list[dict]:
    """Mean queue plus window against the log term, over a (lambda, c) grid.

    With the policy set to ``auto``, zero-window cells run the online
    threshold policy and positive windows run the lookahead heuristic.
    """
    grid = []
    for lam in _feasible_lambdas(cfg):
        for c in cfg.c_values:
            window = c * math.log(1.0 / (1.0 - lam))
            if cfg.policy == "auto":
                policy = "threshold:auto" if window == 0.0 else "windowed-drain"
            else:
                policy = cfg.policy
            grid.append((c, (lam, window, policy)))
    cells = [cell for _, cell in grid]

    rows: list[dict] = []
    min_ratio_by_lambda: dict[float, float] = {}
    for (c, (lam, window, policy)), results in zip(grid, _run_grid(cfg, cells)):
        log_term = math.log(1.0 / (1.0 - lam))
        base = {"lambda": lam, "p": cfg.p, "c": c, "window": window, "policy": policy}
        for row in _cell_rows(base, results):
            row["q_plus_w"] = row["mean_queue_event"] + window
            row["ratio"] = row["q_plus_w"] / log_term
            rows.append(row)
        ratio = rows[-1]["ratio"]  # the aggregate row's
        cur = min_ratio_by_lambda.get(lam)
        min_ratio_by_lambda[lam] = ratio if cur is None else min(cur, ratio)
    for lam, ratio in sorted(min_ratio_by_lambda.items()):
        rows.append({
            "lambda": lam, "p": cfg.p, "c": "min", "window": None, "policy": cfg.policy,
            "seed": None, "n_events": None, "mean_queue_event": None,
            "q_plus_w": None, "ratio": ratio, "ci_halfwidth": None, "aggregate_flag": 2,
        })
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


def _write_plot_stub(out_dir: Path, csv_name: str, y_col: str, group_col: str) -> None:
    stub = _PLOT_STUB.format(csv_name=csv_name, y_col=y_col, group_col=group_col)
    (out_dir / f"plot_{csv_name.removesuffix('.csv')}.py").write_text(stub)


def _run_simulate(cfg: RunConfig, out_dir: Path) -> None:
    rule = _parse_window_rule(cfg.window_rule)
    cells = [(lam, rule(lam), cfg.policy) for lam in cfg.lambdas]
    grouped = _run_grid(cfg, cells, out_dir if cfg.trajectory_csv else None)
    for li, ((lam, window, _), results) in enumerate(zip(cells, grouped)):
        for r in results:
            summary = {"lambda": lam, "p": cfg.p, "window": window, "policy": cfg.policy,
                       "q0": cfg.q0} | r
            with open(out_dir / f"run_lam{li}_seed{r['seed']}.json", "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")


def _run_analytic(cfg: RunConfig, out_dir: Path) -> None:
    rows = online_scaling_table(cfg.p, cfg.lambdas)
    table = [
        {
            "lambda": r.arrival_rate, "x_star": r.x_star, "q_opt": r.q_opt,
            "log_term": r.log_term, "ratio": r.ratio, "diversion_rate": r.diversion_rate,
        }
        for r in rows
    ]
    _write_csv(out_dir / "scaling.csv",
               ["lambda", "x_star", "q_opt", "log_term", "ratio", "diversion_rate"], table)


def _excursion_geometry(cfg: RunConfig, q_ref: float) -> ExcursionConfig:
    """The base-path geometry of the single lambda with the given q_ref."""
    lam = cfg.lambdas[0]
    params = ModelParams(lam, cfg.p, _parse_window_rule(cfg.window_rule)(lam))
    return ExcursionConfig(
        params=params, k=cfg.k, epsilon=cfg.epsilon, zeta=cfg.zeta, phi=cfg.phi, q_ref=q_ref
    )


def _excursion_config(cfg: RunConfig) -> tuple[ExcursionConfig, str]:
    """Geometry for the single lambda; an unset q_ref resolves via reference_queue."""
    if cfg.q_ref is not None:
        return _excursion_geometry(cfg, cfg.q_ref), "config"
    config = _excursion_geometry(cfg, 0.0)
    q_ref, source = reference_queue(config.params, cfg.policy, seed=cfg.master_seed)
    return dataclasses.replace(config, q_ref=q_ref), source


PER_SAMPLE_COLUMNS = ["sample", "e1", "e3", "e4", "e5", "z", "Y", "V", "J", "L0"]


def _run_excursion(cfg: RunConfig, out_dir: Path) -> None:
    config, _ = _excursion_config(cfg)
    report, indicators = estimate_event_probs(config, cfg.n_samples, cfg.master_seed)
    payload = {
        "lambda": cfg.lambdas[0], "p": cfg.p, "window": config.params.window,
        "k": cfg.k, "epsilon": cfg.epsilon, "zeta": cfg.zeta, "phi": cfg.phi,
        "q_ref": config.q_ref,
        "n_samples": report.n_samples,
        "estimates": {
            name: {"mean": e.mean, "se": e.se, "hits": e.hits, "n": e.n}
            for name, e in report.estimates.items()
        },
        "correlations": report.correlations,
        "e5_log_prob_per_window": report.e5_log_prob_per_window,
        "z_given_hit": dataclasses.asdict(report.z_given_hit) if report.z_given_hit else None,
    }
    with open(out_dir / "excursion.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg.per_sample_csv:
        rows = [
            {"sample": i, "e1": int(r[0]), "e3": int(r[1]), "e4": int(r[2]), "e5": int(r[3])}
            for i, r in enumerate(indicators)
        ]
        _write_csv(out_dir / "excursion_samples.csv", PER_SAMPLE_COLUMNS, rows)


def _run_diagnostic(cfg: RunConfig, out_dir: Path) -> None:
    config, source = _excursion_config(cfg)
    report = diversion_idling_diagnostic(
        config, cfg.policy, cfg.n_samples, cfg.master_seed, q_ref_source=source
    )
    payload = {
        "lambda": cfg.lambdas[0], "p": cfg.p, "window": config.params.window,
        "policy": cfg.policy,
        "q_ref": report.q_ref, "q_ref_source": report.q_ref_source,
        "n_samples": report.n_samples, "warmup_time": report.warmup_time,
        "p_e1": dataclasses.asdict(report.p_e1),
        "p_e2": dataclasses.asdict(report.p_e2),
        "n_conditional": report.n_conditional,
        "low_conditional": report.low_conditional,
        "y_over_b": dataclasses.asdict(report.y_over_b),
        "v_last_low": dataclasses.asdict(report.v_last_low),
        "wasted": dataclasses.asdict(report.wasted),
        "low_at_origin": dataclasses.asdict(report.low_at_origin),
    }
    with open(out_dir / "diagnostic.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg.per_sample_csv:
        rows = [
            {
                "sample": r["sample"], "e1": int(r["e1"]), "e3": int(r["e3"]),
                "e4": int(r["e4"]), "e5": int(r["e5"]), "z": r["z"],
                "Y": r["Y"], "V": r["V"], "J": r["J"], "L0": r["L0"],
            }
            for r in report.per_sample
        ]
        _write_csv(out_dir / "diagnostic_samples.csv", PER_SAMPLE_COLUMNS, rows)


def run_config(cfg: RunConfig) -> int:
    """Dispatch a validated config to its experiment; returns an exit code."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(cfg, out_dir)
    if cfg.kind == "simulate":
        _run_simulate(cfg, out_dir)
    elif cfg.kind == "analytic":
        _run_analytic(cfg, out_dir)
    elif cfg.kind == "excursion":
        _run_excursion(cfg, out_dir)
    elif cfg.kind == "phase":
        rows = phase_sweep(cfg)
        _write_csv(out_dir / "phase.csv", PHASE_COLUMNS, rows)
        _write_plot_stub(out_dir, "phase.csv", "mean_queue_event", "window_rule")
    elif cfg.kind == "conserve":
        rows = conservation_sweep(cfg)
        _write_csv(out_dir / "conserve.csv", CONSERVE_COLUMNS, rows)
        _write_plot_stub(out_dir, "conserve.csv", "ratio", "c")
    elif cfg.kind == "diagnostic":
        _run_diagnostic(cfg, out_dir)
    else:  # pragma: no cover - validate_config guards this
        raise ConfigurationError(f"unknown experiment kind `{cfg.kind}`")
    return EXIT_OK


def run_from_config(path) -> int:
    """Load a config file, dispatch it, and map failures to exit codes."""
    data, code = _read_config(path)
    if code != EXIT_OK:
        return code
    return _run_mapping(data)


def _read_config(path):
    """(parsed JSON, EXIT_OK), or (None, EXIT_PARSE) after reporting why."""
    try:
        with open(path) as fh:
            return json.load(fh), EXIT_OK
    except json.JSONDecodeError as exc:
        _emit_error(f"config parse error: {exc}", EXIT_PARSE)
    except OSError as exc:
        _emit_error(f"cannot read config: {exc}", EXIT_PARSE)
    return None, EXIT_PARSE


def _run_mapping(data) -> int:
    """Validate a config mapping and run it; the one place failures map to exit codes."""
    try:
        cfg = config_from_mapping(data)
    except (ConfigurationError, TypeError) as exc:
        _emit_error(str(exc), EXIT_VALIDATION)
        return EXIT_VALIDATION
    try:
        return run_config(cfg)
    except ConfigurationError as exc:
        _emit_error(str(exc), EXIT_VALIDATION)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - harness boundary
        _emit_error(f"runtime error: {exc}", EXIT_RUNTIME)
        return EXIT_RUNTIME


def _emit_error(message: str, code: int) -> None:
    print(json.dumps({"error": message, "exit": code}), file=sys.stderr)


def _add_override_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--p", type=float)
    sub.add_argument("--lambdas", help="comma-separated arrival rates")
    sub.add_argument("--window-rule", dest="window_rule")
    sub.add_argument("--policy")
    sub.add_argument("--horizon", type=float)
    sub.add_argument("--seeds", type=int)
    sub.add_argument("--master-seed", dest="master_seed", type=int)
    sub.add_argument("--out", dest="out_dir")
    sub.add_argument("--q0", type=int)
    sub.add_argument("--burn-in", dest="burn_in", type=float)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--n-samples", dest="n_samples", type=int)
    sub.add_argument("--k", type=float)
    sub.add_argument("--epsilon", type=float)
    sub.add_argument("--zeta", type=float)
    sub.add_argument("--phi", type=float)
    sub.add_argument("--q-ref", dest="q_ref", type=float)
    sub.add_argument("--c-values", dest="c_values", help="comma-separated c grid")
    sub.add_argument("--per-sample-csv", dest="per_sample_csv", action="store_true", default=None)
    sub.add_argument("--trajectory-csv", dest="trajectory_csv", action="store_true", default=None)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="qadmit",
        description="Admission-control queueing experiments (simulation, oracles, excursions).",
    )
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        _add_override_args(subparsers.add_parser(kind))
    args = parser.parse_args(argv)

    data: dict = {}
    if args.config:
        data, code = _read_config(args.config)
        if code != EXIT_OK:
            return code
    data["kind"] = args.kind
    for key in (
        "p", "window_rule", "policy", "horizon", "seeds", "master_seed", "out_dir",
        "q0", "burn_in", "workers", "n_samples", "k", "epsilon", "zeta", "phi",
        "q_ref", "per_sample_csv", "trajectory_csv",
    ):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if args.lambdas is not None:
        data["lambdas"] = [float(v) for v in args.lambdas.split(",")]
    if args.c_values is not None:
        data["c_values"] = [float(v) for v in args.c_values.split(",")]
    return _run_mapping(data)


if __name__ == "__main__":
    sys.exit(main())
