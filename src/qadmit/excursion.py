"""Excursion events on base sample paths and their Monte Carlo statistics.

A base sample path divides time at markers U1 = W, U2 = W + B, U3 = 2W + B
(B a multiple of the lookahead length W) and asks the net-input walk to

* hug its drift line within an affine envelope on (U1, U2]   -> e1,
* stay below 2W of net input over (0, U1] and (U2, U3]       -> e3, e4
  (two W-long buffers that decouple the policy's past from the walk's
  future), and
* crash below a fixed barrier soon after U3                  -> e5,
  via the first-passage time z of the post-U3 walk.

e1, e3, e4, e5 depend only on the input stream; e2 (a small queue at the
relabeled origin) additionally needs a policy and is recorded per sample
by the warm-started diagnostic.  The events sit on disjoint stretches of a
memoryless stream, so they are mutually independent; the estimators here
make that checkable along with the probability claims that drive the
lower-bound argument.

One function, ``evaluate_events``, scores a stream: the four indicators,
the envelope slack (the smallest zeta for which e1 holds) and the stopping
time.  One draw loop, ``_sampled_streams``, yields one ``generate_stream``
per sample i of a range.  Sample i is seeded exactly as
``replication_seed(seed, i)``, but the Generator states come from
``replication_generators``, which hashes a block of indices at a time and
re-seeds one Generator in place; ``generate_stream`` builds each stream
through its trusted constructor, without re-checking what generation
guarantees.  The estimators score the streams through ``_sampled_events``,
and the diagnostic simulates a policy on them.  e5 compares the integer
walk with an integer: it lies below -barrier exactly when it lies below
-floor(barrier), so ``ExcursionConfig.barrier_steps`` keeps floor(barrier),
clamped to 2**62 (no walk comes near it, and the comparison stays in int64
on every numpy), and each sample makes one comparison instead of a
subtraction and a float comparison.  The event estimator and
the diagnostic return per-sample rows beside their report; the zeta sweep
and the rate fit return estimates alone.  The diagnostic takes its wasted
tokens from the engine's rule, ``sim.wasted_tokens``.  Where an unset q_ref
comes from is one rule, ``q_ref_source``, which ``reference_queue`` and the
CLI's config validation both call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .analytic import bd_stationary
from .errors import ConfigurationError, EstimationError, OutOfRangeError
from .policy import make_policy, min_feasible_law, parse_policy_spec
from .sim import last_low_time, run_simulation, wasted_tokens, window_diversions
from .stream import (EventStream, ModelParams, count_events, generate_stream,
                     replication_generators, replication_seed)


@dataclass(frozen=True)
class ExcursionConfig:
    """Geometry and slack constants of the base-sample-path events.

    ``k`` fixes the drift stretch B = k * W; ``epsilon`` and ``zeta`` are
    the envelope slacks (0 < epsilon < min(zeta, drift)); ``phi`` scales
    the first-passage deadline phi * W; ``q_ref`` is the reference queue
    scale entering the barrier (a measured or oracle stand-in for the
    optimal mean queue, which has no closed form).  The fields are frozen,
    so the derived lengths are computed once and kept, not once per sample.
    """

    params: ModelParams
    k: float
    epsilon: float
    zeta: float
    phi: float
    q_ref: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.k, self.phi, self.zeta, self.q_ref))):
            raise ConfigurationError("k, phi, zeta and q_ref must be finite")
        if self.k <= 0 or self.phi <= 0 or self.zeta <= 0 or self.q_ref < 0:
            raise ConfigurationError("k, phi, zeta must be > 0 and q_ref >= 0")
        if self.params.window <= 0:
            raise ConfigurationError(
                f"the base path needs a window > 0 (its stretches are multiples of W), "
                f"got {self.params.window}"
            )
        if not (0.0 < self.epsilon < min(self.zeta, self.params.drift)):
            raise ConfigurationError(
                f"need 0 < epsilon < min(zeta, drift) = "
                f"{min(self.zeta, self.params.drift)}, got {self.epsilon}"
            )

    @property
    def window(self) -> float:
        return self.params.window

    @cached_property
    def buffer_len(self) -> float:
        """Length B of the sustained-drift stretch."""
        return self.k * self.params.window

    @cached_property
    def markers(self) -> tuple[float, float, float]:
        w, b = self.params.window, self.buffer_len
        return w, w + b, 2.0 * w + b

    @cached_property
    def barrier(self) -> float:
        """Depth the post-U3 walk must undershoot for the stopping time."""
        w, b = self.params.window, self.buffer_len
        return 6.0 * self.q_ref + (self.params.drift - self.epsilon) * b + self.zeta + 4.0 * w

    @cached_property
    def barrier_steps(self) -> int:
        """floor(barrier), clamped to 2**62 so that ``p - barrier_steps`` fits int64.

        An integer walk lies below -barrier exactly when it lies below
        -floor(barrier); a walk of n events never comes near -2**62.
        """
        return math.floor(min(self.barrier, 2.0**62))

    @cached_property
    def deadline(self) -> float:
        return self.phi * self.params.window

    @cached_property
    def horizon_needed(self) -> float:
        return self.markers[2] + self.deadline


@dataclass
class EventIndicators:
    """Realized excursion events on one stream.

    ``slack`` is the smallest zeta for which e1 holds, so e1 is
    ``slack <= zeta``; ``z_value`` is the first-passage time, None when the
    post-U3 walk never undershoots the barrier.
    """

    e1: bool
    e3: bool
    e4: bool
    e5: bool
    z_value: float | None
    slack: float


def wilson_halfwidth(successes: int, n: int) -> float:
    """Half-width of the Wilson score interval at z = 1, a 1-sigma scale."""
    if n == 0:
        return float("nan")
    phat = successes / n
    denom = 1.0 + 1.0 / n
    return math.sqrt(phat * (1.0 - phat) / n + 1.0 / (4.0 * n * n)) / denom


def evaluate_events(
    stream: EventStream, config: ExcursionConfig, origin: float = 0.0
) -> EventIndicators:
    """Evaluate e1, e3, e4, e5, the envelope slack and the stopping time on one stream.

    ``origin`` relabels the time axis so a warm-started path can be scored
    as if stationary at time zero.  The stream must extend at least to
    origin + U3 + phi * W.  The walk is piecewise constant while the
    envelope is affine, so checking each event's pre- and post-jump value
    plus the segment end at B is exhaustive.
    """
    if stream.horizon < origin + config.horizon_needed:
        raise ConfigurationError(
            f"stream horizon {stream.horizon} shorter than required "
            f"{origin + config.horizon_needed}"
        )
    if not origin >= 0.0:  # NaN included, as count_events rejects it
        raise OutOfRangeError(f"t={origin} outside [0, {stream.horizon}]")
    times, prefix = stream.times, stream.prefix
    u1, u2, u3 = config.markers
    t1, t3 = origin + u1, origin + u3
    n0, n1, n2, n3 = times.searchsorted((origin, t1, origin + u2, t3), side="right").tolist()
    p0, p1, p2, p3 = prefix.item(n0), prefix.item(n1), prefix.item(n2), prefix.item(n3)
    drift, eps, b = config.params.drift, config.epsilon, config.buffer_len
    # left limit at B on the final flat segment
    slack = abs(float(p2 - p1) - drift * b) - eps * b
    if n2 > n1:
        # |walk - drift u| after and before each jump, less eps u
        u = times[n1:n2] - t1
        walk = prefix[n1 : n2 + 1] - p1
        after = drift * u
        before = np.subtract(walk[:-1], after)
        np.subtract(walk[1:], after, out=after)
        np.abs(before, out=before)
        np.abs(after, out=after)
        np.maximum(after, before, out=after)
        u *= eps
        after -= u
        slack = max(after.item(after.argmax()), slack)  # argmax skips max()'s Python wrapper
    w2 = 2.0 * config.params.window
    hits = prefix[n3 + 1 :] < p3 - config.barrier_steps
    k = hits.argmax().item() if hits.size else 0
    z = times.item(n3 + k) - t3 if hits.size and hits[k] else None
    return EventIndicators(e1=slack <= config.zeta, e3=p1 - p0 <= w2, e4=p3 - p2 <= w2,
                           e5=z is not None and z <= config.deadline, z_value=z, slack=slack)


def _sampled_streams(params: ModelParams, horizon: float, n_samples: int, seed: int,
                     first: int = 0):
    """One fresh stream per sample i in [first, first + n_samples), keyed (seed, i).

    The one draw loop of every Monte Carlo routine.  Sample i draws from a
    Generator seeded exactly as ``replication_seed(seed, i)``, taken from
    ``replication_generators`` a block at a time.  ``generate_stream`` is
    looked up as a module global once per sample, so a wrapper installed on
    this module sees every draw.
    """
    for rng in replication_generators(seed, first, n_samples):
        yield generate_stream(params, horizon, rng)


def _sampled_events(config: ExcursionConfig, n_samples: int, seed: int, first: int = 0):
    """Score the stream of each sample in [first, first + n_samples).

    ``evaluate_events`` is looked up as a module global once per sample too.
    """
    for stream in _sampled_streams(config.params, config.horizon_needed, n_samples, seed, first):
        yield evaluate_events(stream, config)


def _check_samples(n_samples: int, least: int = 1) -> None:
    if n_samples < least:
        raise ConfigurationError(f"need n_samples >= {least}, got {n_samples}")


@dataclass(frozen=True)
class EventEstimate:
    """A Monte Carlo indicator mean with its Wilson-scale standard error."""

    name: str
    mean: float
    se: float
    hits: int
    n: int

    @classmethod
    def from_hits(cls, name: str, hits: int, n: int) -> "EventEstimate":
        """The hit fraction of n samples with its Wilson-scale se."""
        return cls(name, hits / n, wilson_halfwidth(hits, n), hits, n)


@dataclass
class ExcursionReport:
    """Event probability estimates plus their pairwise correlations.

    ``z_given_hit`` summarizes the stopping time over the paths where the
    barrier was crossed at all (within the generated horizon).
    """

    estimates: dict[str, EventEstimate]
    correlations: dict[str, float]
    n_samples: int
    e5_log_prob_per_window: float | None
    z_given_hit: "MeanCI | None" = None


_EVENT_NAMES = ("e1", "e3", "e4", "e5")
MIN_EVENT_SAMPLES = 100


def _pairwise_correlations(indicators: np.ndarray) -> dict[str, float]:
    cors: dict[str, float] = {}
    for a in range(len(_EVENT_NAMES)):
        for b in range(a + 1, len(_EVENT_NAMES)):
            xa = indicators[:, a].astype(float)
            xb = indicators[:, b].astype(float)
            if xa.std() == 0.0 or xb.std() == 0.0:
                r = 0.0  # a degenerate indicator carries no linear dependence
            else:
                r = float(np.corrcoef(xa, xb)[0, 1])
            cors[f"{_EVENT_NAMES[a]}:{_EVENT_NAMES[b]}"] = r
    return cors


def estimate_event_probs(
    config: ExcursionConfig, n_samples: int, seed: int
) -> tuple[ExcursionReport, np.ndarray]:
    """Estimate P(e1), P(e3), P(e4), P(e5) over i.i.d. streams.

    Returns the report plus the raw (n_samples, 4) boolean indicator matrix
    so callers can reuse the same draws (e.g. for independence checks).
    """
    _check_samples(n_samples, MIN_EVENT_SAMPLES)
    # one byte per indicator, viewed as the matrix once: cheaper per sample
    # than a numpy row assignment, and 4 bytes a sample where a list of
    # tuples would hold ~80
    flags = bytearray()
    z_hits = []
    for ev in _sampled_events(config, n_samples, seed):
        flags += bytes((ev.e1, ev.e3, ev.e4, ev.e5))
        if ev.z_value is not None:
            z_hits.append(ev.z_value)
    rows = np.frombuffer(flags, dtype=bool).reshape(n_samples, 4)

    estimates = {
        name: EventEstimate.from_hits(name, int(rows[:, j].sum()), n_samples)
        for j, name in enumerate(_EVENT_NAMES)
    }
    p5 = estimates["e5"].mean
    report = ExcursionReport(
        estimates=estimates,
        correlations=_pairwise_correlations(rows),
        n_samples=n_samples,
        e5_log_prob_per_window=(-math.log(p5) / config.params.window) if p5 > 0 else None,
        z_given_hit=_mean_ci(z_hits) if z_hits else None,
    )
    return report, rows


def e1_zeta_sweep(
    config: ExcursionConfig, zetas, n_samples: int, seed: int
) -> list[tuple[float, float, float]]:
    """P(e1) across a zeta grid on shared streams.

    The per-path minimal slack is computed once, so the estimates are
    exactly monotone in zeta by construction (common random numbers).
    Returns (zeta, estimate, wilson se) triples sorted by zeta.
    """
    _check_samples(n_samples)
    zetas = sorted(float(z) for z in zetas)
    if not zetas:
        raise ConfigurationError("the sweep needs at least one zeta")
    if not all(z > config.epsilon for z in zetas):  # a NaN zeta fails here too
        raise ConfigurationError("every zeta in the sweep must exceed epsilon")
    required = np.fromiter((ev.slack for ev in _sampled_events(config, n_samples, seed)),
                           float, n_samples)
    out = []
    for z in zetas:
        hits = int((required <= z).sum())
        out.append((z, hits / n_samples, wilson_halfwidth(hits, n_samples)))
    return out


@dataclass
class RateFit:
    """Fit of -ln P(e5) against the window length."""

    slope: float
    intercept: float
    r_squared: float
    points: list[tuple[float, float, int]]
    dropped: list[float]


def e5_rate_fit(
    config: ExcursionConfig, windows, n_samples: int, seed: int
) -> RateFit:
    """Fit the exponential decay of the deep-excursion probability in W.

    ``config`` serves as the template; its window is replaced by each entry
    of ``windows``.  Windows with zero hits are dropped (and reported); at
    least three usable points are required for the fit.
    """
    _check_samples(n_samples)
    windows = sorted(float(w) for w in windows)
    points: list[tuple[float, float, int]] = []
    dropped: list[float] = []
    for j, w in enumerate(windows):
        cfg = replace(config, params=replace(config.params, window=w))
        hits = sum(ev.e5 for ev in _sampled_events(cfg, n_samples, seed, (j + 1) * n_samples))
        if hits == 0:
            dropped.append(w)
        else:
            points.append((w, hits / n_samples, hits))
    if len(points) < 3:
        raise EstimationError(
            f"only {len(points)} windows had any deep-excursion hits; "
            f"need at least 3 (dropped: {dropped})"
        )
    ws = np.array([p[0] for p in points])
    ys = -np.log([p[1] for p in points])
    slope, intercept = np.polyfit(ws, ys, 1)
    fitted = slope * ws + intercept
    ss_res = float(((ys - fitted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        points=points,
        dropped=dropped,
    )


@dataclass(frozen=True)
class MeanCI:
    mean: float
    halfwidth: float
    n: int


def _mean_ci(values) -> MeanCI:
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        return MeanCI(float("nan"), float("nan"), 0)
    hw = 1.96 * arr.std(ddof=1) / math.sqrt(n) if n > 1 else float("nan")
    return MeanCI(float(arr.mean()), hw, n)


@dataclass
class DiagnosticReport:
    """Warm-started diversion/idling statistics conditional on e1 and e2.

    ``y_over_b`` is the diversion count on the drift stretch scaled by its
    length, ``v_last_low`` the last time the queue dips to 2 * q_ref inside
    that stretch, ``wasted`` the wasted-token count over the whole base
    path, and ``low_at_origin`` the mean of the indicator Q(0) <= 2 * q_ref
    (the occupancy diagnostic whose limsup the lower-bound argument pins
    below 1/3).
    """

    policy: str
    q_ref: float
    n_samples: int
    warmup_time: float
    p_e1: EventEstimate
    p_e2: EventEstimate
    n_conditional: int
    low_conditional: bool
    y_over_b: MeanCI
    v_last_low: MeanCI
    wasted: MeanCI
    low_at_origin: MeanCI


DEFAULT_WARMUP_EVENTS = 100_000
DEFAULT_PILOT_HORIZON = 50_000.0


def default_warmup_time(config: ExcursionConfig) -> float:
    """Warm-up long enough for both event-count and window-mixing scales."""
    return max(DEFAULT_WARMUP_EVENTS / config.params.total_rate, 100.0 * config.params.window)


def q_ref_source(policy_spec: str) -> str:
    """Where an unset q_ref comes from: ``bd-oracle`` for threshold policies, else ``pilot-run``.

    Admit-all is rejected: its queue has no stationary law in overload.
    """
    kind, _ = parse_policy_spec(policy_spec)
    if kind == "admit-all":
        raise ConfigurationError("policy `admit-all` has no stationary queue; set `q_ref`")
    return "bd-oracle" if kind == "threshold" else "pilot-run"


def reference_queue(params: ModelParams, policy_spec: str, seed: int = 0,
                    pilot_horizon: float = DEFAULT_PILOT_HORIZON) -> tuple[float, str]:
    """Stationary mean-queue stand-in for the barrier's reference scale, and its source.

    The source, from ``q_ref_source``, is carried into reports because the
    substitution (measured mean for the unknown optimal mean) should stay
    visible.
    """
    source = q_ref_source(policy_spec)
    if source == "bd-oracle":
        _, x = parse_policy_spec(policy_spec)
        law = min_feasible_law(params) if x is None else bd_stationary(params, x)
        return law.mean_queue, source
    policy = make_policy(policy_spec, params)
    # the key (seed, 0, 0, 1) ends in a nonzero word, so SeedSequence's zero
    # padding makes it equal no sample key (seed, i) and no sweep key
    st = generate_stream(params, pilot_horizon + params.window, replication_seed(seed, 0, 0, 1))
    _, _, m = run_simulation(st, policy, t_end=pilot_horizon, burn_in=0.2)
    return m.mean_queue_event, source


def diversion_idling_diagnostic(
    config: ExcursionConfig,
    policy_spec: str,
    n_samples: int,
    seed: int,
    warmup_time: float | None = None,
) -> tuple[DiagnosticReport, list[dict]]:
    """Warm up a policy, relabel the origin, and probe the base-path logic.

    Each sample simulates the policy through a warm-up plus one base path,
    treats the warm-up end as time zero, records e2 (queue at origin at
    most 6 * q_ref) and e1, and conditional on both collects the diversion
    count over the drift stretch, the last-low time, the wasted tokens, and
    the low-at-origin indicator.  Returns the report plus one row per
    sample, as ``estimate_event_probs`` does.
    """
    _check_samples(n_samples)
    if warmup_time is None:
        warmup_time = default_warmup_time(config)
    params = config.params
    u1, u2, _ = config.markers
    b = config.buffer_len
    origin = warmup_time
    t_end = origin + config.horizon_needed
    policy = make_policy(policy_spec, params)  # run_simulation resets it per sample
    rows = []
    for i, st in enumerate(_sampled_streams(params, t_end + params.window, n_samples, seed)):
        traj, trace, _ = run_simulation(st, policy, q0=0, t_end=t_end)
        q0 = traj.queue_at(st, origin)
        ev = evaluate_events(st, config, origin=origin)
        y = window_diversions(trace, st, origin + u1, origin + u2)
        v = last_low_time(traj, st, 2.0 * config.q_ref, origin + u1, b)
        wasted = int(wasted_tokens(traj, st)[count_events(st, origin):].sum())
        rows.append(
            {
                "sample": i,
                "e1": ev.e1,
                "e2": q0 <= 6.0 * config.q_ref,
                "e3": ev.e3,
                "e4": ev.e4,
                "e5": ev.e5,
                "z": ev.z_value,
                "Y": y,
                "V": v,
                "J": wasted,
                "L0": int(q0 <= 2.0 * config.q_ref),
                "Q0": q0,
            }
        )

    e1_hits = sum(r["e1"] for r in rows)
    e2_hits = sum(r["e2"] for r in rows)
    cond = [r for r in rows if r["e1"] and r["e2"]]
    return DiagnosticReport(
        policy=policy_spec,
        q_ref=config.q_ref,
        n_samples=n_samples,
        warmup_time=warmup_time,
        p_e1=EventEstimate.from_hits("e1", e1_hits, n_samples),
        p_e2=EventEstimate.from_hits("e2", e2_hits, n_samples),
        n_conditional=len(cond),
        low_conditional=len(cond) < 50,
        y_over_b=_mean_ci([r["Y"] / b for r in cond]),
        v_last_low=_mean_ci([r["V"] for r in cond]),
        wasted=_mean_ci([r["J"] for r in cond]),
        low_at_origin=_mean_ci([r["L0"] for r in cond]),
    ), rows
