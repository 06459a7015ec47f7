"""Diversion policies: map (queue, lookahead window content) to admit/divert.

A policy sees the state at an arrival epoch -- the pre-event queue length
plus every event revealed inside the lookahead window -- and returns True
to divert the arrival.  Decisions may depend on nothing after the window's
right edge; the simulator enforces that by construction and the tests check
it by splicing streams.

Three policies are provided:

* ``threshold:x`` / ``threshold:auto`` -- divert exactly when the queue sits
  at the threshold; the classical online (zero-lookahead) rule whose queue
  is a truncated birth-death chain.
* ``windowed-drain`` -- divert when a token-bucket budget has credit and the
  window certifies that, even without this arrival, the queue stays busy
  for the whole lookahead; a heuristic stand-in for a full lookahead policy.
* ``admit-all`` -- the no-diversion baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import bd_stationary
from .errors import ConfigurationError
from .stream import ModelParams

_THRESHOLD_SCAN_CAP = 10**6


@dataclass
class PolicyState:
    """What a policy may look at when deciding on the current event.

    ``window`` lists (relative time, mark) for every event in
    [now, now + W]; its first entry is the current event at relative time
    zero.  ``queue`` is the queue length just before the current event.
    """

    queue: int
    window: list[tuple[float, int]]
    now: float
    current_mark: int


@dataclass
class BudgetState:
    """Token bucket enforcing the diversion budget pathwise.

    Credit accrues continuously at ``rate`` up to ``cap``; each diversion
    spends one token.  Total diversions in [0, t] are therefore at most
    cap + rate * t on every path.
    """

    tokens: float
    rate: float
    cap: float
    last_time: float = 0.0

    def refill_to(self, t: float) -> None:
        if t > self.last_time:
            self.tokens = min(self.cap, self.tokens + self.rate * (t - self.last_time))
            self.last_time = t


@dataclass
class DecisionTrace:
    """Per-event diversion indicators H(n) aligned with the stream."""

    decisions: np.ndarray

    def __post_init__(self) -> None:
        self.decisions = np.asarray(self.decisions, dtype=np.int8)

    def count(self) -> int:
        return int(self.decisions.sum())


def threshold_decide(x: int, state: PolicyState) -> bool:
    """Divert exactly when the pre-arrival queue equals the threshold."""
    if x < 0:
        raise ValueError(f"threshold must be >= 0, got {x}")
    return state.queue == x


def admit_all_decide(state: PolicyState) -> bool:
    """Never divert."""
    return False


def windowed_drain_decide(params: ModelParams, budget: BudgetState, state: PolicyState) -> bool:
    """Divert iff budget allows and no idling is certified within the window.

    The certification is conservative: it tracks the unreflected walk
    ``queue + S(now, u)`` for u across the window (the true queue dominates
    it), requiring it to stay >= 1 assuming everything else is admitted.
    Spends one budget token on diversion.
    """
    if budget.tokens < 1.0:
        return False
    low = 0
    s = 0
    for _, mark in state.window[1:]:
        s += mark
        if s < low:
            low = s
    if state.queue + low < 1:
        return False
    budget.tokens -= 1.0
    return True


def min_feasible_threshold(params: ModelParams) -> int:
    """Smallest threshold whose stationary diversion rate fits the budget.

    The rate lambda * pi_x(x) decreases in x toward the drift
    lambda - (1 - p) < p, so the scan below always terminates; the cap is a
    tripwire, not a tuning knob.
    """
    for x in range(_THRESHOLD_SCAN_CAP):
        if bd_stationary(params, x).diversion_rate <= params.divert_budget:
            return x
    raise RuntimeError("threshold scan cap hit; diversion rate failed to fall below budget")


class AdmitAllPolicy:
    kind = "admit-all"
    lookahead = 0.0

    def reset(self) -> None:
        pass

    def decide(self, state: PolicyState) -> bool:
        return admit_all_decide(state)


class ThresholdPolicy:
    kind = "threshold"
    lookahead = 0.0

    def __init__(self, x: int):
        if x < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {x}")
        self.x = x

    def reset(self) -> None:
        pass

    def decide(self, state: PolicyState) -> bool:
        return threshold_decide(self.x, state)


class WindowedDrainPolicy:
    """Budgeted no-idling certification over the lookahead window.

    Credit starts at ``max(1, p * window)`` and accrues at rate p with no
    ceiling, so diversions in [0, t] never exceed that start plus p*t on
    any path, while credit saved during quiet stretches stays available to
    divert at full speed through later excursions.  A hard ceiling would
    starve the policy exactly when heavy traffic needs the burst.
    """

    kind = "windowed-drain"

    def __init__(self, params: ModelParams):
        self.params = params
        self.initial_credit = max(1.0, params.divert_budget * params.window)
        self.budget = self._fresh_budget()

    def _fresh_budget(self) -> BudgetState:
        return BudgetState(
            tokens=self.initial_credit, rate=self.params.divert_budget, cap=math.inf
        )

    @property
    def lookahead(self) -> float:
        return self.params.window

    def reset(self) -> None:
        self.budget = self._fresh_budget()

    def decide(self, state: PolicyState) -> bool:
        self.budget.refill_to(state.now)
        return windowed_drain_decide(self.params, self.budget, state)


def parse_policy_spec(spec: str) -> tuple[str, int | None]:
    """Split a selection string into (kind, threshold) without building anything.

    Accepted forms: ``threshold:x=<int>`` (x >= 0), ``threshold:auto``,
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
        if x < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {x}")
        return "threshold", x
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
