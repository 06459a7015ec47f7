"""Spans, counts and invariant checks recorded from outside the package.

The tracer replaces public functions at the module attributes where their
callers look them up (``cli.generate_stream`` is what the phase sweep
calls, ``excursion.generate_stream`` what the sampler calls, and so on),
so no file of the package changes.  Each call becomes a span (name,
start, end, parent, overhead); spans stay in memory and are written once
at the end.  A span's self time is its duration minus its direct
children's durations and the tracer's own overhead around them.

With ``check=True`` every simulated path is also checked, untraced and
charged to the tracer's overhead, with the check time tallied apart:

* the flow identity ``Q = Q0 + S + J - H`` holds at every epoch;
* for windowed-drain, cumulative diversions stay at or below
  ``max(1, p W) + p t`` at every epoch;
* on the first stream of each cell, a delegating policy, which forces the
  engine onto its generic ``decide()`` path, reproduces the fast path's
  decisions and queue on a prefix of the stream.
"""

import inspect
import json
import time
from collections import Counter

import numpy as np
from qadmit import cli, excursion, policy, sim

# (module, attribute looked up by the caller, span name)
WRAPS = [
    (cli, "phase_sweep", "cli.phase_sweep"),
    (cli, "estimate_event_probs", "excursion.estimate_event_probs"),
    (cli, "replication_seed", "stream.replication_seed"),
    (cli, "generate_stream", "stream.generate_stream"),
    (cli, "run_simulation", "sim.run_simulation"),
    (sim, "make_policy", "policy.make_policy"),
    (policy, "bd_stationary", "analytic.bd_stationary"),
    (excursion, "replication_seed", "stream.replication_seed"),
    (excursion, "generate_stream", "stream.generate_stream"),
    (excursion, "evaluate_events", "excursion.evaluate_events"),
]

DECIDE_PREFIX = 2000  # events per cell replayed on the generic decide() path
EVENT_NAMES = ("e1", "e3", "e4", "e5")


class DelegatingPolicy:
    """Forwards to a built-in policy; not being one, it takes the generic path."""

    def __init__(self, inner):
        self.inner = inner
        self.lookahead = inner.lookahead

    def reset(self) -> None:
        self.inner.reset()

    def decide(self, state) -> bool:
        return self.inner.decide(state)


class Tracer:
    def __init__(self, check: bool):
        self.check = check
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, overhead_ns]
        self.unwrapped: list[str] = []
        self._stack: list[int] = []
        self._suspended = False
        self._sim_signature = inspect.signature(sim.run_simulation)
        self._tally: Counter = Counter()
        self._checks: Counter = Counter()
        self._check_ns: Counter = Counter()
        self._seen_cells: set = set()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def install(self) -> None:
        hooks = {
            "stream.generate_stream": self._after_stream,
            "sim.run_simulation": self._after_simulation,
            "excursion.evaluate_events": self._after_events,
        }
        for module, attr, name in WRAPS:
            orig = getattr(module, attr, None)
            if orig is None:
                self.unwrapped.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrapper(name, orig, hooks.get(name)))

    def _wrapper(self, name: str, orig, hook):
        def wrapper(*args, **kwargs):
            if self._suspended:
                return orig(*args, **kwargs)
            enter = time.perf_counter_ns()
            span = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(args, kwargs, result)
            # bookkeeping, hooks and checks outside [start, end] are charged
            # to this call, so they do not inflate the caller's self time
            span[4] = time.perf_counter_ns() - enter - (span[2] - span[1])
            return result

        return wrapper

    # -- counts and checks ---------------------------------------------------

    def _after_stream(self, args, kwargs, st) -> None:
        self._tally["stream.events"] += len(st)
        self._tally["stream.bytes"] += st.times.nbytes + st.marks.nbytes + st.prefix.nbytes

    def _after_events(self, args, kwargs, ev) -> None:
        self._tally["excursion.samples"] += 1
        for name in EVENT_NAMES:
            self._tally[f"excursion.{name}_hits"] += int(getattr(ev, name))

    def _after_simulation(self, args, kwargs, result) -> None:
        traj, trace, metrics = result
        self._tally["cli.tasks"] += 1
        self._tally["sim.events"] += metrics.n_events
        self._tally["sim.diversions"] += trace.count()
        self._tally["sim.bytes"] += (
            traj.pre_event_queue.nbytes + traj.post_event_queue.nbytes + trace.decisions.nbytes
        )
        if not self.check:
            return
        call = self._sim_signature.bind(*args, **kwargs)
        call.apply_defaults()
        call = call.arguments
        stream, spec = call["stream"], call["policy"]
        residuals = self._checked("flow_identity", sim.flow_identity_residuals, traj, trace, stream)
        self._checks["flow_identity_violations"] += int(np.count_nonzero(residuals))
        if spec == "windowed-drain":
            self._checked("budget_bound", self._check_budget, trace, stream)
        if isinstance(spec, str) and stream.params not in self._seen_cells:
            self._seen_cells.add(stream.params)
            self._checked("decide_path", self._check_decide_path, call, traj, trace)

    def _checked(self, name: str, fn, *args):
        """Run an invariant check with the wrappers passing calls straight through."""
        self._suspended = True
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._check_ns[name] += time.perf_counter_ns() - start
            self._suspended = False

    def _check_budget(self, trace, stream) -> None:
        p, w = stream.params.divert_budget, stream.params.window
        diverted = np.cumsum(trace.decisions, dtype=np.int64)
        bound = max(1.0, p * w) + p * stream.times[: diverted.size]
        # credit accrues as a float sum of p * gap, so allow its rounding
        over = diverted > bound + 1e-9 * (1.0 + bound)
        self._checks["budget_bound_paths"] += 1
        self._checks["budget_bound_violations"] += int(np.count_nonzero(over))

    def _check_decide_path(self, call, traj, trace) -> None:
        stream = call["stream"]
        n = min(DECIDE_PREFIX, traj.pre_event_queue.size)
        if n == 0:
            return
        delegate = DelegatingPolicy(policy.make_policy(call["policy"], stream.params))
        g_traj, g_trace, _ = sim.run_simulation(
            stream, delegate, q0=call["q0"], t_end=float(stream.times[n - 1]),
            burn_in=call["burn_in"],
        )
        differs = (
            (g_trace.decisions != trace.decisions[:n])
            | (g_traj.pre_event_queue != traj.pre_event_queue[:n])
            | (g_traj.post_event_queue != traj.post_event_queue[:n])
        )
        self._checks["decide_path_events"] += n
        self._checks["decide_path_mismatches"] += int(np.count_nonzero(differs))

    # -- results -------------------------------------------------------------

    def _span_totals(self):
        charged = [0] * len(self.spans)  # time of direct children plus their overhead
        for name, start, end, parent, overhead in self.spans:
            if parent >= 0:
                charged[parent] += end - start + overhead
        total, own, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - charged[i]
            calls[name] += 1
        return total, own, calls

    def counts(self) -> dict:
        """Counts that must repeat exactly for the same seed and code."""
        _, _, calls = self._span_totals()
        tally = self._tally
        out = {name: tally[name] for name in
               ("stream.events", "sim.events", "sim.diversions", "excursion.samples", "cli.tasks")}
        out.update({f"excursion.{e}_hits": tally[f"excursion.{e}_hits"] for e in EVENT_NAMES})
        out["stream.generate_calls"] = calls["stream.generate_stream"]
        out["stream.replication_seed_calls"] = calls["stream.replication_seed"]
        out["policy.make_policy_calls"] = calls["policy.make_policy"]
        out["analytic.bd_stationary_calls"] = calls["analytic.bd_stationary"]
        return out

    def layer_metrics(self) -> dict:
        total, own, calls = self._span_totals()
        tally = self._tally
        events, samples = tally["sim.events"], tally["excursion.samples"]

        def per(ns: float, n: int, unit_ns: float) -> float:
            return ns / n / unit_ns if n else 0.0

        return {
            "sim.run_simulation_ns_per_event": per(own["sim.run_simulation"], events, 1),
            "sim.flow_identity_ns_per_event": per(self._check_ns["flow_identity"], events, 1),
            "stream.generate_ns_per_event":
                per(total["stream.generate_stream"], tally["stream.events"], 1),
            "stream.generate_us_per_call":
                per(total["stream.generate_stream"], calls["stream.generate_stream"], 1e3),
            "stream.replication_seed_us_per_call":
                per(total["stream.replication_seed"], calls["stream.replication_seed"], 1e3),
            "excursion.evaluate_us_per_sample":
                per(total["excursion.evaluate_events"], samples, 1e3),
            "excursion.estimate_self_us_per_sample":
                per(own["excursion.estimate_event_probs"], samples, 1e3),
            "policy.make_policy_us_per_call":
                per(total["policy.make_policy"], calls["policy.make_policy"], 1e3),
            "analytic.bd_stationary_s": total["analytic.bd_stationary"] / 1e9,
            "cli.self_s": own["cli.run_config"] / 1e9,
            "stream.bytes_per_event": per(tally["stream.bytes"], tally["stream.events"], 1),
            "sim.bytes_per_event": per(tally["sim.bytes"], events, 1),
            "trace.check_s": sum(self._check_ns.values()) / 1e9,
        }

    def check_results(self) -> dict:
        return {
            "flow_identity_violations": self._checks["flow_identity_violations"],
            "budget_bound_paths": self._checks["budget_bound_paths"],
            "budget_bound_violations": self._checks["budget_bound_violations"],
            "decide_path_events": self._checks["decide_path_events"],
            "decide_path_mismatches": self._checks["decide_path_mismatches"],
            "unwrapped": self.unwrapped,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, overhead in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "overhead_ns": overhead}) + "\n")
