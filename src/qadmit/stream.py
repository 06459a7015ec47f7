"""Merged arrival/service-token event streams and their net-input walk.

Two independent Poisson processes drive the system: job arrivals at rate
``arrival_rate`` and service tokens at rate ``1 - divert_budget``.  Their
superposition is a single Poisson stream of epochs ``times`` with i.i.d.
marks (+1 arrival, -1 token).  The cumulative mark sum between two instants
is the net-input walk: a transient random walk whose positive drift
``arrival_rate - (1 - divert_budget)`` is what overloads the queue.

A stream stores 9 bytes per event, float64 epochs and int8 marks, until
its int64 walk ``prefix`` is first read; then 17.  The threshold and
admit-all kernels never read it.  Running sums of marks belong in int64
(``prefix`` holds one); an int8 accumulator would wrap.  Hand-built
streams are checked in full; ``generate_stream`` builds its streams
through one trusted constructor that skips the checks generation already
guarantees, and draws all of a stream's mark uniforms in one call; with
those uniforms, generation peaks at ~17 bytes per event.

The epochs and the walk are running sums taken in place with
``np.add.accumulate(x, out=x)``.  ``ndarray.cumsum`` runs the same ufunc
loop, so the bits are the same, but it reaches that loop through a generic
accumulate call that costs ~0.8 us more per call, and an excursion sample
of ~123 events takes two such sums whose work is a few hundred ns.

Replication i of a run is seeded by ``replication_seed(master, i)``.
``replication_generators`` yields the same Generator states for a whole
range of i, hashing a block of indices at a time with numpy's SeedSequence
arithmetic in vectorised uint32 form and re-seeding one Generator in place,
so a Monte Carlo loop pays no per-sample SeedSequence or Generator setup.

Importing this module loads ``numpy.random``, which numpy 2 would
otherwise import on first use, so a forked sweep worker inherits it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.random  # noqa: F401 - numpy 2 loads it lazily; load it once, before a pool forks

from .errors import ConfigurationError, OutOfRangeError


def overloaded(arrival_rate: float, divert_budget: float) -> bool:
    """Whether ``1 - divert_budget < arrival_rate < 1``, the overload regime."""
    return 1.0 - divert_budget < arrival_rate < 1.0


def log_scale(rate: float) -> float:
    """ln(1/(1 - rate)), rate in [0, 1): the scale on which the mean queue and the window grow."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"log_scale needs a rate in [0, 1), got {rate}")
    return math.log(1.0 / (1.0 - rate))


@dataclass(frozen=True)
class ModelParams:
    """Model triple (arrival rate, diversion budget rate, lookahead length).

    The overload regime requires ``1 - divert_budget < arrival_rate < 1``,
    so the net-input drift is strictly positive while the post-diversion
    load can still be stabilized.  The fields are frozen, so the derived
    rates are computed on first read and kept: a run builds its params once
    and reads them per sample, where a plain property chain cost ~0.1-0.2 us
    a read.  Kept rates live beside the fields but are no fields, so
    ``==``, ``hash``, ``repr`` and ``dataclasses.asdict`` ignore them, and
    ``dataclasses.replace`` computes them afresh.
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

    @cached_property
    def service_rate(self) -> float:
        return 1.0 - self.divert_budget

    @cached_property
    def total_rate(self) -> float:
        """Rate of the merged event stream."""
        return self.arrival_rate + self.service_rate

    @cached_property
    def drift(self) -> float:
        """Mean net input per unit time; positive in overload."""
        return self.arrival_rate - self.service_rate

    @cached_property
    def arrival_fraction(self) -> float:
        """Probability that a merged-stream event is an arrival."""
        return self.arrival_rate / self.total_rate


@dataclass
class EventStream:
    """A realized merged sample path: strictly increasing epochs with marks.

    ``times`` is float64.  ``marks`` is int8: ``marks[n]`` is +1 for an
    arrival and -1 for a service token.  ``prefix`` is int64 with
    ``prefix[n]`` the sum of the first n marks; it is built on first read
    and kept, so a second read returns the same array.  Hand-built marks of any
    integer, float or list form are checked at their own dtype before they
    are narrowed, so a value such as 255 or 1.5 is rejected rather than
    wrapped or truncated; any boolean mark is rejected outright.
    The stream is immutable after construction and safe to share read-only.
    ``params`` records the generating model when the stream came from
    :func:`generate_stream`; hand-built streams may leave it ``None``.
    """

    times: np.ndarray
    marks: np.ndarray
    horizon: float
    params: ModelParams | None = None
    _prefix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
        # a bool is no number: True would pass as +1, but False never as -1;
        # asarray turns a list that mixes bools and integers into integers
        if (marks.dtype == np.bool_ or not (np.abs(marks) == 1).all()
                or not isinstance(self.marks, np.ndarray)
                and any(isinstance(m, (bool, np.bool_)) for m in self.marks)):
            raise ValueError("marks must be +1 or -1")
        self.marks = marks.astype(np.int8, copy=False)

    @classmethod
    def _generated(cls, times: np.ndarray, marks: np.ndarray, horizon: float,
                   params: ModelParams) -> "EventStream":
        """A stream from :func:`generate_stream`'s arrays, built without re-checking them.

        Generation guarantees 1-d float64 epochs, strictly increasing and at
        most ``horizon``, and int8 marks of +1/-1.  A zero first gap is
        possible, though, and no tie nudging covers it, so the first epoch
        is still checked.
        """
        if times.size and not times[0] > 0.0:
            raise ValueError("event times must lie in (0, horizon]")
        stream = cls.__new__(cls)
        stream.times, stream.marks, stream.horizon, stream.params = times, marks, horizon, params
        stream._prefix = None
        return stream

    @property
    def prefix(self) -> np.ndarray:
        # a plain property: functools.cached_property takes a lock on its
        # first read on Python 3.11 (~0.6 us), and a stream's walk is read
        # about once, so unlike ModelParams' rates it would gain nothing
        prefix = self._prefix
        if prefix is None:
            # prefix[n] = sum of the first n marks, so S over events (i, j] is
            # prefix[j] - prefix[i]; widen first, then sum in place (a casting
            # cumsum from int8 is about 3x slower)
            prefix = np.zeros(self.marks.size + 1, dtype=np.int64)
            prefix[1:] = self.marks
            np.add.accumulate(prefix, out=prefix)
            self._prefix = prefix
        return prefix

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


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's 128-bit
# LCG multiplier, as in numpy/random/bit_generator.pyx and pcg64.h
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) | 4865540595714422341
SEED_BLOCK = 4096  # indices hashed per numpy pass
MAX_REPLICATIONS = 1 << 32  # replication indices are hashed as uint32 words


def _seed_words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, low first; 0 gives [0]."""
    words = []
    while True:
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            return words


def _pcg64_states(master_words: list[int], indices: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence((master, i)))`` for each uint32 index i.

    Runs SeedSequence's entropy mixing and ``generate_state(4, uint64)`` on
    whole columns of uint32 words (wrapping products, as in C), then PCG64's
    seeding step per row on Python ints.  The hash constants advance the
    same way for every row, so only the words are arrays.
    """
    n = indices.size
    entropy = [np.full(n, w, dtype=np.uint32) for w in master_words] + [indices]
    hash_const, hash_mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * hash_mult) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x
        result -= np.uint32(_MIX_MULT_R) * y
        result ^= result >> np.uint32(16)
        return result

    zeros = np.zeros(n, dtype=np.uint32)
    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for word in entropy[_POOL_SIZE:]:
            for i_dst in range(_POOL_SIZE):
                pool[i_dst] = mix(pool[i_dst], hashmix(word))
        # generate_state(4, uint64): 8 uint32 words cycling over the pool,
        # paired little-endian into 4 uint64 words
        hash_const, hash_mult = _INIT_B, _MULT_B
        out = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    words = [(out[2 * j] | (out[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)]
    states = []
    # PCG64 seeds from (initstate, initseq) = (w0 w1, w2 w3), high word first
    for w0, w1, w2, w3 in zip(*words):
        inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        states.append((((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def replication_generators(master_seed: int, first: int, n: int) -> Iterator[np.random.Generator]:
    """Yield a Generator for each replication i in [first, first + n).

    The i-th yield's state is bit for bit that of
    ``np.random.default_rng(replication_seed(master_seed, i))``, but one
    Generator is re-seeded in place: use each before taking the next.
    Indices are hashed ``SEED_BLOCK`` at a time, so memory stays flat in n.
    """
    if master_seed < 0:
        raise ConfigurationError(f"master seed must be >= 0, got {master_seed}")
    if first < 0 or first + n > MAX_REPLICATIONS:
        raise ConfigurationError(
            f"replication indices must lie in [0, 2**32), got [{first}, {first + n})"
        )
    master_words = _seed_words(int(master_seed))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for start in range(first, first + n, SEED_BLOCK):
        indices = np.arange(start, min(start + SEED_BLOCK, first + n), dtype=np.uint32)
        for state, inc in _pcg64_states(master_words, indices):
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng


def generate_stream(
    params: ModelParams,
    horizon: float,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> EventStream:
    """Sample the merged Poisson stream on (0, horizon].

    Exponential inter-event gaps are drawn at the total rate and each event
    is marked an arrival independently with probability
    ``arrival_rate / total_rate``; this is distributionally identical to
    merging two independent Poisson processes but consumes a single RNG
    stream, which keeps runs reproducible.  Identical (params, horizon,
    seed) yield identical streams.  A Generator ``seed`` is drawn from as
    it stands, so a stream from ``replication_generators`` equals the one
    seeded by the matching ``replication_seed``.
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
        np.add.accumulate(part, out=part)
        if chunks:
            part += t_last
        chunks.append(part)
        t_last = part.item(-1)
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
    return EventStream._generated(times, marks, float(horizon), params)


def _nudge_ties(times: np.ndarray, horizon: float) -> np.ndarray:
    """Restore strict ordering when a gap underflowed to zero in float.

    Gaps are continuous so true ties have probability zero; a collapsed gap
    is bumped forward by one ulp (cascading left to right), and anything
    nudged past the horizon is dropped.
    """
    if times.size > 1 and np.count_nonzero(times[1:] <= times[:-1]):
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
