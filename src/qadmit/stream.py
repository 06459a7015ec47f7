"""Merged arrival/service-token event streams and their net-input walk.

Two independent Poisson processes drive the system: job arrivals at rate
``arrival_rate`` and service tokens at rate ``1 - divert_budget``.  Their
superposition is a single Poisson stream of epochs ``times`` with i.i.d.
marks (+1 arrival, -1 token).  The cumulative mark sum between two instants
is the net-input walk: a transient random walk whose positive drift
``arrival_rate - (1 - divert_budget)`` is what overloads the queue.

A stream stores 17 bytes per event: float64 epochs, int8 marks and the
int64 walk ``prefix``.  Running sums of marks belong in int64 (``prefix``
already holds one); an int8 accumulator would wrap.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OutOfRangeError


def overloaded(arrival_rate: float, divert_budget: float) -> bool:
    """Whether ``1 - divert_budget < arrival_rate < 1``, the overload regime."""
    return 1.0 - divert_budget < arrival_rate < 1.0


def log_scale(rate: float) -> float:
    """ln(1/(1 - rate)): the scale on which the mean queue and the window grow."""
    return math.log(1.0 / (1.0 - rate))


@dataclass(frozen=True)
class ModelParams:
    """Model triple (arrival rate, diversion budget rate, lookahead length).

    The overload regime requires ``1 - divert_budget < arrival_rate < 1``,
    so the net-input drift is strictly positive while the post-diversion
    load can still be stabilized.
    """

    arrival_rate: float
    divert_budget: float
    window: float = 0.0

    def __post_init__(self) -> None:
        lam, p, w = self.arrival_rate, self.divert_budget, self.window
        if not (0.0 < p < 1.0):
            raise ConfigurationError(f"divert_budget must be in (0,1), got {p}")
        if not overloaded(lam, p):
            raise ConfigurationError(
                f"overload requires 1-p < arrival_rate < 1; got arrival_rate={lam}, p={p}"
            )
        if not (w >= 0.0 and math.isfinite(w)):
            raise ConfigurationError(f"window must be finite and >= 0, got {w}")

    @property
    def service_rate(self) -> float:
        return 1.0 - self.divert_budget

    @property
    def total_rate(self) -> float:
        """Rate of the merged event stream."""
        return self.arrival_rate + self.service_rate

    @property
    def drift(self) -> float:
        """Mean net input per unit time; positive in overload."""
        return self.arrival_rate - self.service_rate

    @property
    def arrival_fraction(self) -> float:
        """Probability that a merged-stream event is an arrival."""
        return self.arrival_rate / self.total_rate


@dataclass
class EventStream:
    """A realized merged sample path: strictly increasing epochs with marks.

    ``times`` is float64.  ``marks`` is int8: ``marks[n]`` is +1 for an
    arrival and -1 for a service token.  ``prefix`` is int64 with
    ``prefix[n]`` the sum of the first n marks.  Hand-built marks of any
    integer, float or list form are checked at their own dtype before they
    are narrowed, so a value such as 255 or 1.5 is rejected rather than
    wrapped or truncated.
    The stream is immutable after construction and safe to share read-only.
    ``params`` records the generating model when the stream came from
    :func:`generate_stream`; hand-built streams may leave it ``None``.
    """

    times: np.ndarray
    marks: np.ndarray
    horizon: float
    params: ModelParams | None = None
    prefix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        marks = np.asarray(self.marks)
        if self.times.shape != marks.shape or self.times.ndim != 1:
            raise ValueError("times and marks must be 1-d arrays of equal length")
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ConfigurationError(f"horizon must be finite and >= 0, got {self.horizon}")
        if self.times.size:
            if (self.times[1:] <= self.times[:-1]).any():
                raise ValueError("event times must be strictly increasing")
            if self.times[0] <= 0.0 or self.times[-1] > self.horizon:
                raise ValueError("event times must lie in (0, horizon]")
        if not (np.abs(marks) == 1).all():
            raise ValueError("marks must be +1 or -1")
        self.marks = marks.astype(np.int8, copy=False)
        # prefix[n] = sum of the first n marks, so S over events (i, j] is
        # prefix[j] - prefix[i]; widen first, then sum in place (a casting
        # cumsum from int8 is about 3x slower)
        self.prefix = np.empty(marks.size + 1, dtype=np.int64)
        self.prefix[0] = 0
        walk = self.prefix[1:]
        walk[...] = self.marks
        walk.cumsum(out=walk)

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def from_pairs(cls, pairs, horizon: float, params: ModelParams | None = None) -> "EventStream":
        """Build a stream from (time, mark) pairs; convenient for hand traces."""
        if pairs:
            times, marks = zip(*pairs)
        else:
            times, marks = (), ()
        return cls(np.array(times, dtype=np.float64), marks, horizon, params)


def replication_seed(master_seed: int, *indices: int) -> np.random.SeedSequence:
    """Derive the RNG seed of one replication from a master seed.

    Uses numpy's SeedSequence entropy mixing on the tuple
    (master, *indices), so replications keyed by run or (cell, repeat)
    indices are mutually independent yet reproducible.
    """
    return np.random.SeedSequence(entropy=(master_seed, *indices))


def generate_stream(
    params: ModelParams,
    horizon: float,
    seed: int | np.random.SeedSequence,
) -> EventStream:
    """Sample the merged Poisson stream on (0, horizon].

    Exponential inter-event gaps are drawn at the total rate and each event
    is marked an arrival independently with probability
    ``arrival_rate / total_rate``; this is distributionally identical to
    merging two independent Poisson processes but consumes a single RNG
    stream, which keeps runs reproducible.  Identical (params, horizon,
    seed) yield identical streams.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
    rate = params.total_rate
    rng = np.random.default_rng(seed)

    mean_count = rate * horizon
    chunk = max(int(mean_count + 6.0 * math.sqrt(mean_count) + 16.0), 16)
    chunks: list[np.ndarray] = []
    t_last = 0.0
    while True:
        # epochs are built in the gap buffer; the first chunk skips the
        # offset, since adding 0.0 is exact
        part = rng.exponential(scale=1.0 / rate, size=chunk)
        part.cumsum(out=part)
        if chunks:
            part += t_last
        chunks.append(part)
        t_last = float(part[-1])
        if t_last > horizon:
            break
        chunk = max(chunk // 4, 16)
    times = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    times = times[: times.searchsorted(horizon, side="right")]
    times = _nudge_ties(times, horizon)

    # arrival indicator 0/1 as int8, mapped in place to the marks +1/-1
    marks = (rng.random(times.size) < params.arrival_fraction).view(np.int8)
    marks += marks
    marks -= 1
    return EventStream(times=times, marks=marks, horizon=float(horizon), params=params)


def _nudge_ties(times: np.ndarray, horizon: float) -> np.ndarray:
    """Restore strict ordering when a gap underflowed to zero in float.

    Gaps are continuous so true ties have probability zero; a collapsed gap
    is bumped forward by one ulp (cascading left to right), and anything
    nudged past the horizon is dropped.
    """
    if times.size > 1 and (times[1:] <= times[:-1]).any():
        for i in range(times.size - 1):
            if times[i + 1] <= times[i]:
                times[i + 1] = np.nextafter(times[i], np.inf)
        times = times[times <= horizon]
    return times


def count_events(stream: EventStream, t: float) -> int:
    """Number of events with epoch <= t (the counting process, closed right)."""
    if not (0.0 <= t <= stream.horizon):
        raise OutOfRangeError(f"t={t} outside [0, {stream.horizon}]")
    return int(np.searchsorted(stream.times, t, side="right"))


def net_input(stream: EventStream, s: float, t: float) -> int:
    """Arrivals minus tokens over the interval (s, t]."""
    if s > t:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    ns, nt = count_events(stream, s), count_events(stream, t)
    return int(stream.prefix[nt] - stream.prefix[ns])


def running_extreme(
    stream: EventStream,
    t0: float,
    t1: float,
    mode: str = "min",
) -> tuple[int, float]:
    """Extreme of the walk u -> net_input(t0, u) at event epochs in (t0, t1].

    Returns the extreme value together with the first epoch attaining it;
    (0, t0) when the interval contains no events.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if t0 > t1:
        raise ValueError(f"need t0 <= t1, got t0={t0}, t1={t1}")
    n0, n1 = count_events(stream, t0), count_events(stream, t1)
    if n1 == n0:
        return 0, t0
    walk = stream.prefix[n0 + 1 : n1 + 1] - stream.prefix[n0]
    arg = int(np.argmin(walk) if mode == "min" else np.argmax(walk))
    return int(walk[arg]), float(stream.times[n0 + arg])


def stream_to_csv(stream: EventStream, path) -> None:
    """Dump the stream as CSV rows ``n,time,mark`` (n is 1-based)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "time", "mark"])
        for n, (t, r) in enumerate(zip(stream.times, stream.marks), start=1):
            writer.writerow([n, repr(float(t)), int(r)])
