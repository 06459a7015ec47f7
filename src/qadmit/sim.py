"""Discrete-event engine: fold a policy over a stream, produce the queue path.

Per-event dynamics: an admitted arrival increments the queue, a service
token decrements it if positive (otherwise the token is wasted), a diverted
arrival leaves it unchanged.  The engine keeps the full pre/post-event
queue path so that the flow identity

    Q(t) = Q(0) + S(0,t) + J(t) - H(t)

can be checked exactly at every epoch, and computes the two performance
functionals (event-average queue, diversion rate) plus the wasted-token
count.

The built-in policies run through fast paths: admit-all through the
closed-form Lindley recursion, threshold through a blocked clip-map scan
in numpy, and the windowed heuristic through a loop over a sliding-window
minimum of the walk's prefix sums.  Any other object with a
``decide(state)`` method runs through a generic path that materializes a
``PolicyState`` per arrival.  Fast and generic paths are
decision-for-decision identical, which the tests pin down.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OutOfRangeError
from .policy import (
    AdmitAllPolicy,
    DecisionTrace,
    PolicyState,
    ThresholdPolicy,
    WindowedDrainPolicy,
    make_policy,
)
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


# Each kernel below fills path[1:] (the post-event queue) of an int64
# buffer whose path[0] already holds q0, and returns the int8 decisions.


def _free_walk(marks: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Write q0 + S (widened before it is summed) into path[1:]; return that view."""
    walk = path[1:]
    walk[...] = marks
    walk.cumsum(out=walk)
    walk += path[0]
    return walk


def _simulate_admit_all(marks: np.ndarray, path: np.ndarray) -> np.ndarray:
    # Lindley recursion in closed form: reflection lifts the free walk by
    # the running amount of wasted tokens.
    base = _free_walk(marks, path)
    low = np.minimum.accumulate(base)
    np.minimum(low, 0, out=low)
    base -= low
    return np.zeros(marks.size, dtype=np.int8)


def _clip_scan(marks: np.ndarray, q: int, x: int) -> np.ndarray:
    """Post-event path of q -> clip(q + m, 0, x) from a start q in [0, x].

    The path comes back in the narrow scan dtype (int16 unless x or the
    block is large); assigning it into an int64 buffer widens it.  A
    composition of such maps is again clip(q + a, lo, hi), with a the mark
    sum and lo, hi the clipped walk started from 0 and from x.  The marks
    are cut into about sqrt(n) blocks; each block's prefix maps are built
    for all blocks at once (one vector step per column), a short pass
    carries q across the block starts, and one clip gives the whole path.
    """
    n = marks.size
    b = math.isqrt(n - 1) + 1
    nb = -(-n // b)
    # every intermediate lies in [-b, x + b]
    dt = np.int16 if x + b < 2**15 else np.int64
    steps = np.zeros(nb * b, dtype=np.int8)  # zero padding maps q to itself
    steps[:n] = marks
    steps = np.ascontiguousarray(steps.reshape(nb, b).T)  # row j: step j of every block
    shift = np.cumsum(steps, axis=0, dtype=dt)
    bounds = np.empty((b, 2, nb), dtype=dt)  # [:, 0] walk from 0, [:, 1] walk from x
    cur = np.zeros((2, nb), dtype=dt)
    cur[1] = x
    for j in range(b):
        row = bounds[j]
        np.add(cur, steps[j], out=row)
        np.maximum(row, 0, out=row)
        np.minimum(row, x, out=row)
        cur = row
    a_end = shift[-1].tolist()
    lo_end = bounds[-1, 0].tolist()
    hi_end = bounds[-1, 1].tolist()
    starts = [0] * nb
    for i in range(nb):
        starts[i] = q
        q = min(max(q + a_end[i], lo_end[i]), hi_end[i])
    shift += np.array(starts, dtype=dt)
    np.clip(shift, bounds[:, 0], bounds[:, 1], out=shift)
    return shift.T.reshape(-1)[:n]


def _simulate_threshold(marks: np.ndarray, path: np.ndarray, x: int) -> np.ndarray:
    q0 = int(path[0])
    if q0 > x:
        # above x every arrival is admitted: the path is the free walk
        # q0 + S, which moves by +-1 and stays >= 1 until it first equals x;
        # from there the scan overwrites the rest of it
        free = _free_walk(marks, path)
        k = int((free == x).argmax())
        if free[k] == x and k + 1 < marks.size:
            free[k + 1 :] = _clip_scan(marks[k + 1 :], x, x)
    else:
        path[1:] = _clip_scan(marks, q0, x)
    return ((marks == 1) & (path[:-1] == x)).view(np.int8)


def _window_end_indices(times: np.ndarray, window: float, n_sim: int) -> np.ndarray:
    # m[i] = index of the last event with Z <= Z_i + window, over the whole
    # stream (windows of late in-horizon events may reach past t_end)
    return np.searchsorted(times, times[:n_sim] + window, side="right") - 1


def _sliding_prefix_min(prefix: np.ndarray, ends: np.ndarray) -> list:
    """min of prefix over indices [i+2, ends[i]+1] for each event i.

    None where the range is empty.  ``ends`` must be nondecreasing, which
    holds because event times are sorted.
    """
    mins: list = [None] * ends.size
    dq: deque[int] = deque()
    right = 1  # next prefix index to ingest
    pl = prefix.tolist()
    for i in range(ends.size):
        hi = ends[i] + 1
        while right <= hi:
            v = pl[right]
            while dq and pl[dq[-1]] >= v:
                dq.pop()
            dq.append(right)
            right += 1
        lo = i + 2
        while dq and dq[0] < lo:
            dq.popleft()
        if dq and dq[0] <= hi:
            mins[i] = pl[dq[0]]
    return mins


def _simulate_windowed_drain(stream: EventStream, policy, path: np.ndarray) -> np.ndarray:
    n_sim = path.size - 1
    params = policy.params
    w = params.window
    ends = _window_end_indices(stream.times, w, n_sim)
    mins = _sliding_prefix_min(stream.prefix, ends)
    prefix_l = stream.prefix.tolist()
    times_l = stream.times[:n_sim].tolist()
    marks_l = stream.marks[:n_sim].tolist()

    hs = np.zeros(n_sim, dtype=np.int8)
    q = int(path[0])
    cap = policy.budget.cap
    rate = params.divert_budget
    tokens = policy.budget.tokens
    last_t = policy.budget.last_time
    for i in range(n_sim):
        if marks_l[i] == 1:
            t = times_l[i]
            if t > last_t:
                tokens = min(cap, tokens + rate * (t - last_t))
                last_t = t
            divert = False
            if tokens >= 1.0:
                m = mins[i]
                low = 0 if m is None else min(0, m - prefix_l[i + 1])
                if q + low >= 1:
                    divert = True
                    tokens -= 1.0
            if divert:
                hs[i] = 1
            else:
                q += 1
        elif q > 0:
            q -= 1
        path[i + 1] = q
    policy.budget.tokens = tokens
    policy.budget.last_time = last_t
    return hs


def _simulate_generic(stream: EventStream, policy, path: np.ndarray) -> np.ndarray:
    n_sim = path.size - 1
    w = float(getattr(policy, "lookahead", 0.0))
    times = stream.times
    marks_l = stream.marks[:n_sim].tolist()
    ends = _window_end_indices(times, w, n_sim)
    hs = np.zeros(n_sim, dtype=np.int8)
    q = int(path[0])
    for i in range(n_sim):
        mk = marks_l[i]
        if mk == 1:
            t = float(times[i])
            win = [(float(times[j]) - t, int(stream.marks[j])) for j in range(i, ends[i] + 1)]
            state = PolicyState(queue=q, window=win, now=t, current_mark=1)
            if policy.decide(state):
                hs[i] = 1
            else:
                q += 1
        elif q > 0:
            q -= 1
        path[i + 1] = q
    return hs


def run_simulation(
    stream: EventStream,
    policy,
    q0: int = 0,
    t_end: float | None = None,
    burn_in: float = DEFAULT_BURN_IN,
):
    """Apply a policy to a stream and return (trajectory, trace, metrics).

    ``policy`` is a selection string (resolved against ``stream.params``)
    or a policy object.  Events up to ``t_end`` (default: the stream
    horizon) are simulated; a longer stream lets lookahead policies see
    full windows near the end.  ``burn_in`` is the fraction of leading
    events excluded from the stationary metrics.
    """
    if q0 < 0:
        raise ValueError(f"q0 must be >= 0, got {q0}")
    if isinstance(policy, str):
        policy = make_policy(policy, stream.params)
    if hasattr(policy, "reset"):
        policy.reset()
    if t_end is None:
        t_end = stream.horizon
    n_sim = count_events(stream, t_end)

    path = np.empty(n_sim + 1, dtype=np.int64)
    path[0] = q0
    if n_sim == 0:
        hs = np.zeros(0, dtype=np.int8)
    elif isinstance(policy, AdmitAllPolicy):
        hs = _simulate_admit_all(stream.marks[:n_sim], path)
    elif isinstance(policy, ThresholdPolicy):
        hs = _simulate_threshold(stream.marks[:n_sim], path, policy.x)
    elif isinstance(policy, WindowedDrainPolicy):
        hs = _simulate_windowed_drain(stream, policy, path)
    elif hasattr(policy, "decide"):
        hs = _simulate_generic(stream, policy, path)
    else:
        raise ConfigurationError(f"policy handle {policy!r} has no decide()")

    trajectory = QueueTrajectory(
        initial=q0, pre_event_queue=path[:-1], post_event_queue=path[1:], t_end=float(t_end)
    )
    trace = DecisionTrace(decisions=hs)
    metrics = _compute_metrics(stream, trajectory, trace, burn_in)
    return trajectory, trace, metrics


def _compute_metrics(
    stream: EventStream, trajectory: QueueTrajectory, trace, burn_in: float
) -> SimMetrics:
    pre = trajectory.pre_event_queue
    post = trajectory.post_event_queue
    hs = trace.decisions
    n = pre.size
    t_end = trajectory.t_end
    wasted_mask = (stream.marks[:n] == -1) & (pre == 0)
    wasted_count = int(wasted_mask.sum())

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
    if n_used:
        dts[0] = times[n_burn] - t_start
        np.subtract(times[n_burn + 1 : n], times[n_burn : n - 1], out=dts[1:n_used])
    dts[n_used] = t_end - times[n - 1]
    dts[0] *= post[n_burn - 1] if n_burn >= 1 else trajectory.initial
    dts[1:] *= post[n_burn:]
    mean_time = float(dts.sum() / (t_end - t_start))

    if stream.params is not None:
        event_rate = stream.params.total_rate
    else:
        event_rate = n_used / (t_end - t_start) if t_end > t_start else 0.0
    diversion_rate = event_rate * float(hs[n_burn:].sum()) / n_used if n_used else 0.0

    return SimMetrics(
        mean_queue_event=mean_event,
        mean_queue_time=mean_time,
        diversion_rate=diversion_rate,
        wasted_count=wasted_count,
        wasted_rate=wasted_count / t_end if t_end > 0 else 0.0,
        n_events=n,
        n_burned=n_burn,
    )


def flow_identity_residual(
    trajectory: QueueTrajectory, trace, stream: EventStream, t: float
) -> int:
    """Q(t) - [Q(0) + S(0,t) + J(t) - H(t)]; zero on every lawful path."""
    if t > trajectory.t_end:
        raise OutOfRangeError(f"t={t} beyond simulated range {trajectory.t_end}")
    n = count_events(stream, t)
    q_t = int(trajectory.post_event_queue[n - 1]) if n >= 1 else trajectory.initial
    s = int(stream.prefix[n])
    pre = trajectory.pre_event_queue[:n]
    j = int(((stream.marks[:n] == -1) & (pre == 0)).sum())
    h = int(trace.decisions[:n].sum())
    return q_t - (trajectory.initial + s + j - h)


def flow_identity_residuals(trajectory: QueueTrajectory, trace, stream: EventStream) -> np.ndarray:
    """Residuals at every simulated event epoch at once."""
    n = trajectory.pre_event_queue.size
    s = stream.prefix[1 : n + 1]
    j = np.cumsum((stream.marks[:n] == -1) & (trajectory.pre_event_queue == 0))
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
    q_at_t0 = trajectory.post_event_queue[n0 - 1] if n0 >= 1 else trajectory.initial
    bounds = np.concatenate(([t0], stream.times[n0:n1], [t1]))
    values = np.concatenate(([q_at_t0], trajectory.post_event_queue[n0:n1]))
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
