"""Discrete-event engine: fold a policy over a stream, produce the queue path.

Per-event dynamics: an admitted arrival increments the queue, a service
token decrements it if positive (otherwise the token is wasted), a diverted
arrival leaves it unchanged.  The engine keeps the full pre/post-event
queue path so that the flow identity

    Q(t) = Q(0) + S(0,t) + J(t) - H(t)

can be checked exactly at every epoch, and computes the two performance
functionals (event-average queue, diversion rate) plus the wasted-token
count.

Each built-in policy is one class (see :mod:`qadmit.policy`) with its rule
as ``decide(state)``, the reference, and as ``simulate(stream, path)``,
the kernel the engine runs.  Any other object with a ``decide(state)``
method runs through the generic path, which materializes a
``PolicyState`` per arrival and stays as the test oracle: every kernel
matches it decision for decision.

A kernel, like the generic path, only fills the post-event queue
``path[1:]`` and returns nothing; the engine reads H off that path as the
arrivals whose step is 0, and J as the tokens that find the queue empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OutOfRangeError
from .policy import PolicyState, _window_end_indices, make_policy
from .stream import EventStream, count_events

DEFAULT_BURN_IN = 0.1


@dataclass
class QueueTrajectory:
    """Piecewise-constant queue path sampled at event epochs.

    ``pre_event_queue[n]`` is Q just before event n, ``post_event_queue[n]``
    just after; the path is right-continuous and equals ``initial`` before
    the first event.  Covers events up to ``t_end``.

    From :func:`run_simulation` both arrays are int64 views of one path
    buffer ``[initial, Q after event 1, ...]``: ``pre_event_queue`` is
    ``path[:-1]`` and ``post_event_queue`` is ``path[1:]``.  Treat them as
    read-only; writing to one changes the other.
    """

    initial: int
    pre_event_queue: np.ndarray
    post_event_queue: np.ndarray
    t_end: float

    def queue_at(self, stream: EventStream, t: float) -> int:
        """Queue length at time t (right-continuous)."""
        if t > self.t_end:
            raise OutOfRangeError(f"t={t} beyond simulated range {self.t_end}")
        n = count_events(stream, t)
        if n == 0:
            return self.initial
        return int(self.post_event_queue[n - 1])


@dataclass
class DecisionTrace:
    """Per-event diversion indicators H(n), int8, aligned with the stream."""

    decisions: np.ndarray

    def count(self) -> int:
        return int(np.count_nonzero(self.decisions))


@dataclass
class SimMetrics:
    """Run-level summaries.

    ``mean_queue_event`` and ``mean_queue_time`` are the event-sampled and
    time-integral queue averages; both honor the burn-in, as does
    ``diversion_rate``.  ``wasted_count`` is the raw J(t_end) from time 0
    (it feeds the flow identity, so it is never trimmed).
    """

    mean_queue_event: float
    mean_queue_time: float
    diversion_rate: float
    wasted_count: int
    wasted_rate: float
    n_events: int
    n_burned: int


def _simulate_generic(stream: EventStream, policy, path: np.ndarray) -> None:
    n_sim = path.size - 1
    w = float(getattr(policy, "lookahead", 0.0))
    times = stream.times
    marks_l = stream.marks[:n_sim].tolist()
    ends = _window_end_indices(times, w, n_sim).tolist()
    q = int(path[0])
    for i in range(n_sim):
        mk = marks_l[i]
        if mk == 1:
            t = float(times[i])
            e = ends[i] + 1
            # float64 differences, as float(times[j]) - t gives them one by one
            win = list(zip((times[i:e] - t).tolist(), stream.marks[i:e].tolist()))
            state = PolicyState(queue=q, window=win, now=t)
            if not policy.decide(state):
                q += 1
        elif q > 0:
            q -= 1
        path[i + 1] = q


def run_simulation(
    stream: EventStream,
    policy,
    q0: int = 0,
    t_end: float | None = None,
    burn_in: float = DEFAULT_BURN_IN,
):
    """Apply a policy to a stream and return (trajectory, trace, metrics).

    ``policy`` is a selection string (resolved against ``stream.params``)
    or a policy object; an object's ``simulate`` kernel runs when it has
    one, its ``decide`` otherwise.  Events up to ``t_end`` (default: the stream
    horizon) are simulated; a longer stream lets lookahead policies see
    full windows near the end.  ``burn_in`` is the fraction of leading
    events excluded from the stationary metrics.
    """
    # a bool is an int to isinstance, but no queue length
    if isinstance(q0, bool) or not isinstance(q0, (int, np.integer)) or q0 < 0:
        raise ConfigurationError(f"q0 must be an integer >= 0, got {q0!r}")
    if not 0.0 <= burn_in < 1.0:  # NaN fails too
        raise ConfigurationError(f"burn_in must be in [0, 1), got {burn_in!r}")
    if isinstance(policy, str):
        policy = make_policy(policy, stream.params)
    elif not (hasattr(policy, "simulate") or hasattr(policy, "decide")):
        raise ConfigurationError(f"policy handle {policy!r} has neither simulate() nor decide()")
    if hasattr(policy, "reset"):
        policy.reset()
    if t_end is None:
        t_end = stream.horizon
    n_sim = count_events(stream, t_end)
    if int(q0) + n_sim > np.iinfo(np.int64).max:  # each event moves the queue by at most one
        raise ConfigurationError(f"q0={q0} plus {n_sim} events overflows the int64 queue path")

    path = np.empty(n_sim + 1, dtype=np.int64)
    path[0] = q0
    if n_sim:
        if hasattr(policy, "simulate"):
            policy.simulate(stream, path)
        else:
            _simulate_generic(stream, policy, path)

    trajectory = QueueTrajectory(
        initial=q0, pre_event_queue=path[:-1], post_event_queue=path[1:], t_end=float(t_end)
    )
    # H: an admitted arrival raises the queue by one, a diverted one leaves it where it was
    diverted = (stream.marks[:n_sim] == 1) & (path[1:] == path[:-1])
    trace = DecisionTrace(decisions=diverted.view(np.int8))
    metrics = _compute_metrics(stream, trajectory, trace, burn_in)
    return trajectory, trace, metrics


def _compute_metrics(
    stream: EventStream, trajectory: QueueTrajectory, trace, burn_in: float
) -> SimMetrics:
    """Past the empty-run return n >= 1, so n_used >= 1 (burn_in < 1) and t_end > t_start >= 0."""
    pre = trajectory.pre_event_queue
    n = pre.size
    t_end = trajectory.t_end
    wasted_count = int(np.count_nonzero(wasted_tokens(trajectory, stream)))

    if n == 0:
        return SimMetrics(
            mean_queue_event=float("nan"),
            mean_queue_time=float(trajectory.initial),
            diversion_rate=0.0,
            wasted_count=0,
            wasted_rate=0.0,
            n_events=0,
            n_burned=0,
        )

    n_burn = int(burn_in * n)
    n_used = n - n_burn
    times = stream.times
    t_start = float(times[n_burn - 1]) if n_burn >= 1 else 0.0
    mean_event = float(pre[n_burn:].mean())

    # queue-weighted segment lengths between t_start, the used epochs and
    # t_end, built in one buffer; the same products in the same order as
    # diff() of the bounds times the segment values
    dts = np.empty(n_used + 1)
    dts[0] = times[n_burn] - t_start
    np.subtract(times[n_burn + 1 : n], times[n_burn : n - 1], out=dts[1:n_used])
    dts[n_used] = t_end - times[n - 1]
    dts[0] *= pre[n_burn]  # post[n_burn - 1], or initial when nothing is burned
    dts[1:] *= trajectory.post_event_queue[n_burn:]
    mean_time = float(dts.sum() / (t_end - t_start))

    if stream.params is not None:
        event_rate = stream.params.total_rate
    else:
        event_rate = n_used / (t_end - t_start)
    diversion_rate = event_rate * int(np.count_nonzero(trace.decisions[n_burn:])) / n_used

    return SimMetrics(
        mean_queue_event=mean_event,
        mean_queue_time=mean_time,
        diversion_rate=diversion_rate,
        wasted_count=wasted_count,
        wasted_rate=wasted_count / t_end,
        n_events=n,
        n_burned=n_burn,
    )


def wasted_tokens(trajectory: QueueTrajectory, stream: EventStream) -> np.ndarray:
    """Per simulated event: a token that found the queue empty, i.e. a unit step of J."""
    n = trajectory.pre_event_queue.size
    return (stream.marks[:n] == -1) & (trajectory.pre_event_queue == 0)


def flow_identity_residuals(trajectory: QueueTrajectory, trace, stream: EventStream) -> np.ndarray:
    """Q(t) - [Q(0) + S(0,t) + J(t) - H(t)] at every simulated epoch; zero on a lawful path."""
    n = trajectory.pre_event_queue.size
    s = stream.prefix[1 : n + 1]
    j = np.cumsum(wasted_tokens(trajectory, stream))
    h = np.cumsum(trace.decisions[:n], dtype=np.int64)
    return trajectory.post_event_queue - (trajectory.initial + s + j - h)


def window_diversions(trace, stream: EventStream, a: float, b: float) -> int:
    """Number of diversions among events in (a, b]."""
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    n_total = trace.decisions.size
    na = min(count_events(stream, a), n_total)
    nb = min(count_events(stream, b), n_total)
    return int(trace.decisions[na:nb].sum())


def _segments(trajectory: QueueTrajectory, stream: EventStream, t0: float, t1: float):
    """Boundaries and queue values of the piecewise-constant path on [t0, t1]."""
    n0 = count_events(stream, t0)
    n1 = count_events(stream, t1)
    bounds = np.concatenate(([t0], stream.times[n0:n1], [t1]))
    values = np.concatenate(([trajectory.queue_at(stream, t0)], trajectory.post_event_queue[n0:n1]))
    return bounds, values


def occupancy_fraction(
    trajectory: QueueTrajectory,
    stream: EventStream,
    q_level: float,
    t0: float,
    t1: float,
) -> float:
    """Exact fraction of [t0, t1] during which Q(t) <= q_level."""
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got t0={t0}, t1={t1}")
    if t1 > trajectory.t_end:
        raise OutOfRangeError(f"t1={t1} beyond simulated range {trajectory.t_end}")
    bounds, values = _segments(trajectory, stream, t0, t1)
    dts = np.diff(bounds)
    return float(dts[values <= q_level].sum() / (t1 - t0))


def last_low_time(
    trajectory: QueueTrajectory,
    stream: EventStream,
    q_level: float,
    t_start: float,
    duration: float,
) -> float:
    """Last time in [0, duration) at which Q(t_start + .) sits at or below q_level.

    Returns the supremum of the low set relative to ``t_start`` (an event
    epoch or the window length), or 0.0 if the queue stays above the level
    throughout.
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    t_stop = t_start + duration
    if t_stop > trajectory.t_end:
        raise OutOfRangeError(f"window end {t_stop} beyond simulated range {trajectory.t_end}")
    bounds, values = _segments(trajectory, stream, t_start, t_stop)
    # the window is right-open: a jump exactly at its end lies outside, and
    # its zero-length segment must not count as time spent low
    low = np.flatnonzero((values <= q_level) & (np.diff(bounds) > 0))
    if low.size == 0:
        return 0.0
    return float(bounds[low[-1] + 1] - t_start)
