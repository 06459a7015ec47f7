"""Diversion policies: map (queue, lookahead window content) to admit/divert.

A policy sees the state at an arrival epoch -- the pre-event queue length
plus every event revealed inside the lookahead window -- and returns True
to divert the arrival.  Decisions may depend on nothing after the window's
right edge; the simulator enforces that by construction and the tests check
it by splicing streams.

Three policies are provided, one class each:

* ``threshold:x`` / ``threshold:auto`` -- divert exactly when the queue sits
  at the threshold; the classical online (zero-lookahead) rule whose queue
  is a truncated birth-death chain.
* ``windowed-drain`` -- divert when a token-bucket budget has credit and the
  window certifies that, even without this arrival, the queue stays busy
  for the whole lookahead; a heuristic stand-in for a full lookahead policy.
* ``admit-all`` -- the no-diversion baseline.

Each class holds its rule twice.  ``decide(state)`` is the reference: one
arrival at a time, as the generic engine path consults it.  ``simulate(stream,
path)`` is the kernel that :func:`qadmit.sim.run_simulation` runs instead: it
fills the post-event queue ``path[1:]`` of an int64 buffer whose ``path[0]``
holds q0 and returns nothing, since the engine reads the diversions off that
path.  A kernel runs from the state ``reset()`` leaves, as the engine resets
the policy first.  Admit-all is the closed-form Lindley recursion.  Threshold
walks blocks of 32 marks in lockstep, in int8 when x + 32 < 2**7 and in
int64 otherwise, composes each block into one map q -> clip(q + a, lo, hi)
and carries q across the block starts with an int64 Hillis-Steele scan of
those maps in log2 passes.  Windowed-drain is a credit loop, block by block,
over per-event window lows from one reduceat.  The two agree decision for
decision, which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import BirthDeathSolution, bd_stationary, closed_form_threshold
from .errors import ConfigurationError
from .stream import EventStream, ModelParams

_DRAIN_BLOCK = 2**15  # events per block of the windowed-drain kernel
_SCAN_BLOCK = 32  # marks per block of the threshold scan


@dataclass
class PolicyState:
    """What a policy may look at when deciding on the current arrival.

    ``window`` lists (relative time, mark) for every event in
    [now, now + W]; its first entry is the current arrival at relative time
    zero.  ``queue`` is the queue length just before the current event.
    """

    queue: int
    window: list[tuple[float, int]]
    now: float


def min_feasible_law(params: ModelParams) -> BirthDeathSolution:
    """Stationary law of the smallest threshold whose diversion rate fits the budget.

    The rate lambda * pi_x(x) decreases in x toward the drift
    lambda - (1 - p) < p, so the feasible thresholds are x* and all above it.
    ``closed_form_threshold`` gives x* from the exact law; the rate that
    decides here is the float one of ``bd_stationary``, whose sums round,
    so a short walk from that start settles x*: down while x - 1 fits, then
    up while x does not.  That takes at most |x_hat - x*| + 2 laws of at
    most max(x_hat, x*) + 1 states, and the last law that fit is returned,
    so a caller that needs x*'s law solves it no second time.
    """

    def fits(law: BirthDeathSolution) -> bool:
        return law.diversion_rate <= params.divert_budget

    x = closed_form_threshold(params)
    law = None
    while x > 0 and fits(lower := bd_stationary(params, x - 1)):
        law, x = lower, x - 1
    if law is None:  # the walk never stepped down: x is x* or below it
        while not fits(law := bd_stationary(params, x)):
            x += 1
    return law


def min_feasible_threshold(params: ModelParams) -> int:
    """Smallest threshold whose stationary diversion rate fits the budget (``min_feasible_law``)."""
    return min_feasible_law(params).threshold


def _free_walk(marks: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Write q0 + S (widened before it is summed) into path[1:]; return that view."""
    walk = path[1:]
    walk[...] = marks
    walk.cumsum(out=walk)
    walk += path[0]
    return walk


def _clip_scan(marks: np.ndarray, q: int, x: int, out: np.ndarray) -> None:
    """Write the path of q -> clip(q + m, 0, x) from a start q in [0, x] into out.

    The marks are cut into nb blocks of b = ``_SCAN_BLOCK`` steps, whatever
    n is (the last block padded with zero steps, which map q to itself).  One
    lockstep loop over the b steps walks every block at once in three rows:
    the free walk and the walks clipped to [0, x] from 0 and from x.  Their
    ends a, lo and hi give the block's map q -> clip(q + a, lo, hi), and such
    maps compose exactly: (a1, lo1, hi1) then (a2, lo2, hi2) is
    (a1 + a2, clip(lo1 + a2, lo2, hi2), clip(hi1 + a2, lo2, hi2)).

    The carry across block starts takes the a's out first.  Measured from
    the free walk S at each block start, block i is the pure clip to
    [lo - S_{i+1}, hi - S_{i+1}], and pure clips (L1, H1) then (L2, H2) compose
    to (clip(L1, L2, H2), clip(H1, L2, H2)).  A Hillis-Steele inclusive scan
    over [the constant map to q, block 0, ..., block nb - 2], whose pass d
    composes every map with the one d before it, leaves every block start
    in ceil(log2 nb) passes of one maximum and one minimum.  Within a block
    the path is then clip(start + free walk, walk from 0, walk from x), and
    one transposing copy widens it into ``out``.

    The walks and that last clip stay in [-b, x + b]: int8 when x + b < 2**7,
    else int64.  The scan, whose values lie in [-n, x + n], runs in int64.
    """
    n = marks.size
    b = _SCAN_BLOCK
    dt = np.int8 if x + b < 2**7 else np.int64
    nb = -(-n // b)
    full = n // b
    steps = np.zeros((b, nb), dtype=dt)  # row j: step j of every block
    steps[:, :full] = marks[: full * b].reshape(full, b).T
    if full < nb:
        steps[: n - full * b, full] = marks[full * b :]
    # numpy's max/min with a scalar operand run a slow loop (int8: 0.56-1.2 ns
    # per element under numpy 2.4.6, 0.04-0.17 with a same-shape array)
    lims = np.empty((6, nb), dtype=dt)
    lims.T[...] = (-b, 0, 0, b, x, x)
    floor, ceil = lims[:3], lims[3:]
    walks = np.empty((b + 1, 3, nb), dtype=dt)  # step j: free walk, from 0, from x
    walks[0].T[...] = (0, 0, x)
    cur = walks[0]
    for row, step in zip(walks[1:], steps):
        np.add(cur, step, out=row)
        np.maximum(row, floor, out=row)
        np.minimum(row, ceil, out=row)
        cur = row

    starts = np.zeros(nb, dtype=np.int64)  # S at each block start, then the queue there
    np.add.accumulate(cur[0, :-1], dtype=np.int64, out=starts[1:])
    bounds = np.empty((2, nb), dtype=np.int64)  # rows L and H of the maps being scanned
    bounds[:, 0] = q
    np.subtract(cur[1:, :-1], starts[1:], out=bounds[:, 1:])
    d = 1
    while d < nb:
        composed = np.maximum(bounds[:, :-d], bounds[0, d:])
        np.minimum(composed, bounds[1, d:], out=composed)
        bounds[:, d:] = composed
        d *= 2
    starts += bounds[0]

    path = walks[1:, 0]
    path += starts.astype(dt)
    np.maximum(path, walks[1:, 1], out=path)
    np.minimum(path, walks[1:, 2], out=path)
    out[: full * b].reshape(full, b)[...] = path[:, :full].T
    if full < nb:
        out[full * b :] = path[: n - full * b, full]


def _window_end_indices(times: np.ndarray, window: float, n_sim: int) -> np.ndarray:
    # index of the last event with Z <= Z_i + window, past t_end if need be
    return np.searchsorted(times, times[:n_sim] + window, side="right") - 1


def _window_lows(prefix: np.ndarray, ends: np.ndarray) -> list:
    """min(0, min(prefix[i+2 : ends[i]+2]) - prefix[i+1]) for every event i.

    The lowest point of the walk after event i inside its window, 0 for an
    empty range.  One reduceat over bounds interleaving i+1 and ends[i]+1 takes
    min(prefix[i+1 : ends[i]+1]), or prefix[i+1] alone where that is empty; the
    segments in between go unused, and the closed end is folded in after.
    """
    starts = np.arange(1, ends.size + 1)
    bounds = np.stack((starts, ends + 1), axis=1).ravel()
    low = np.minimum.reduceat(prefix[: ends[-1] + 2], bounds)[::2]
    np.minimum(low, prefix[ends + 1], out=low)
    low -= prefix[starts]
    return low.tolist()


class AdmitAllPolicy:
    """Never divert: the no-diversion baseline."""

    lookahead = 0.0

    def reset(self) -> None:
        pass

    def decide(self, state: PolicyState) -> bool:
        return False

    def simulate(self, stream: EventStream, path: np.ndarray) -> None:
        # Lindley recursion in closed form: reflection lifts the free walk by
        # the running amount of wasted tokens.
        marks = stream.marks[: path.size - 1]
        base = _free_walk(marks, path)
        low = np.minimum.accumulate(base)
        np.minimum(low, 0, out=low)
        base -= low


def _checked_threshold(x) -> int:
    """``x`` as an int, if it is an integer in [0, 2**62]; a bool is refused.

    2**62 is the bound ``q0`` has: either plus the events of any stream fits int64.
    """
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ConfigurationError(f"threshold must be an integer, got {x!r}")
    if x < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {x}")
    if x > 2**62:
        raise ConfigurationError(f"threshold must be <= 2**62, got {x}")
    return int(x)


class ThresholdPolicy:
    """Divert exactly when the pre-arrival queue equals the threshold x."""

    lookahead = 0.0

    def __init__(self, x: int):
        self.x = _checked_threshold(x)

    def reset(self) -> None:
        pass

    def decide(self, state: PolicyState) -> bool:
        return state.queue == self.x

    def simulate(self, stream: EventStream, path: np.ndarray) -> None:
        x = self.x
        marks = stream.marks[: path.size - 1]
        q0 = int(path[0])
        if q0 > x:
            # above x every arrival is admitted: the path is the free walk
            # q0 + S, which moves by +-1 and stays >= 1 until it first equals x;
            # from there the scan overwrites the rest of it
            free = _free_walk(marks, path)
            k = int((free == x).argmax())
            if free[k] == x and k + 1 < marks.size:
                _clip_scan(marks[k + 1 :], x, x, free[k + 1 :])
        else:
            _clip_scan(marks, q0, x, path[1:])


class WindowedDrainPolicy:
    """Budgeted no-idling certification over the lookahead window.

    Credit starts at ``max(1, p * window)`` and accrues at rate p with no
    ceiling, so diversions in [0, t] never exceed that start plus p*t on
    any path, while credit saved during quiet stretches stays available to
    divert at full speed through later excursions.  A hard ceiling would
    starve the policy exactly when heavy traffic needs the burst.
    ``credit`` and ``last_time`` (the epoch it was last accrued to) carry
    the budget from one decision to the next; ``reset()`` restores them.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.initial_credit = max(1.0, params.divert_budget * params.window)
        self.reset()

    @property
    def lookahead(self) -> float:
        return self.params.window

    def reset(self) -> None:
        self.credit = self.initial_credit
        self.last_time = 0.0

    def decide(self, state: PolicyState) -> bool:
        """Divert iff credit allows and no idling is certified within the window.

        The certification is conservative: it tracks the unreflected walk
        ``queue + S(now, u)`` for u across the window (the true queue
        dominates it), requiring it to stay >= 1 assuming everything else
        is admitted.  Spends one unit of credit on diversion.
        """
        if state.now > self.last_time:
            self.credit += self.params.divert_budget * (state.now - self.last_time)
            self.last_time = state.now
        if self.credit < 1.0:
            return False
        low = 0
        s = 0
        for _, mark in state.window[1:]:
            s += mark
            if s < low:
                low = s
        if state.queue + low < 1:
            return False
        self.credit -= 1.0
        return True

    def simulate(self, stream: EventStream, path: np.ndarray) -> None:
        # no list or array spans more than one block; suffix views index from its start.
        # Every arrival comes after last_t: reset() sets it to 0, and epochs rise from > 0
        n_sim = path.size - 1
        times, window = stream.times, self.params.window
        q = int(path[0])
        rate = self.params.divert_budget
        credit, last_t = self.credit, self.last_time
        for a in range(0, n_sim, _DRAIN_BLOCK):
            b = min(a + _DRAIN_BLOCK, n_sim)
            lows = _window_lows(stream.prefix[a:], _window_end_indices(times[a:], window, b - a))
            qs = []
            for mark, t, low in zip(stream.marks[a:b].tolist(), times[a:b].tolist(), lows):
                if mark == 1:
                    credit += rate * (t - last_t)
                    last_t = t
                    if credit >= 1.0 and q + low >= 1:
                        credit -= 1.0
                    else:
                        q += 1
                elif q > 0:
                    q -= 1
                qs.append(q)
            path[a + 1 : b + 1] = qs
        self.credit, self.last_time = credit, last_t


def parse_policy_spec(spec: str) -> tuple[str, int | None]:
    """Split a selection string into (kind, threshold) without building anything.

    Accepted forms: ``threshold:x=<int>`` (0 <= x <= 2**62), ``threshold:auto``,
    ``windowed-drain``, ``admit-all``.  The threshold is ``None`` for
    ``threshold:auto`` and for the non-threshold kinds.  Needs no model
    parameters, so a config can be checked before anything runs.
    """
    if spec in ("admit-all", "windowed-drain"):
        return spec, None
    if spec == "threshold:auto":
        return "threshold", None
    if isinstance(spec, str) and spec.startswith("threshold:x="):
        try:
            x = int(spec.removeprefix("threshold:x="))
        except ValueError as exc:
            raise ConfigurationError(f"bad threshold in policy spec {spec!r}") from exc
        try:
            return "threshold", _checked_threshold(x)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{exc} in policy spec {spec!r}") from None
    raise ConfigurationError(f"unknown policy spec {spec!r}")


def make_policy(spec: str, params: ModelParams | None = None):
    """Build a policy from its selection string (see :func:`parse_policy_spec`).

    The auto threshold and the windowed heuristic need model parameters.
    """
    kind, x = parse_policy_spec(spec)
    if kind == "admit-all":
        return AdmitAllPolicy()
    if x is not None:
        return ThresholdPolicy(x)
    if params is None:
        raise ConfigurationError(f"{spec} needs model parameters")
    if kind == "windowed-drain":
        return WindowedDrainPolicy(params)
    return ThresholdPolicy(min_feasible_threshold(params))
