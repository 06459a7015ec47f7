import math

import numpy as np
import pytest

from qadmit import policy as policy_module
from qadmit.analytic import bd_stationary, closed_form_threshold
from qadmit.errors import ConfigurationError
from qadmit.policy import (
    AdmitAllPolicy,
    PolicyState,
    ThresholdPolicy,
    WindowedDrainPolicy,
    make_policy,
    min_feasible_threshold,
)
from qadmit.sim import run_simulation
from qadmit.stream import EventStream, ModelParams, generate_stream, replication_seed

PARAMS = ModelParams(0.9, 0.5, window=4.0)


def _state(queue, window, now=0.0):
    return PolicyState(queue=queue, window=window, now=now)


def _drain(credit):
    """A windowed-drain policy holding the given credit at time 0."""
    policy = WindowedDrainPolicy(PARAMS)
    policy.credit = credit
    return policy


def test_threshold_decide_examples():
    assert ThresholdPolicy(2).decide(_state(2, [(0.0, 1)])) is True
    assert ThresholdPolicy(2).decide(_state(1, [(0.0, 1)])) is False
    assert ThresholdPolicy(0).decide(_state(0, [(0.0, 1)])) is True
    with pytest.raises(ValueError):
        ThresholdPolicy(-1)


@pytest.mark.parametrize("x", [1.5, True, np.True_, "3", 2**62 + 1],
                         ids=["float", "bool", "numpy-bool", "str", "past-2**62"])
def test_threshold_policy_takes_only_an_integer_it_can_hold(x):
    # a float threshold clips the kernel's queue at 1 while decide() never
    # diverts; a bool would run as x = 1
    with pytest.raises(ConfigurationError, match="threshold must be"):
        ThresholdPolicy(x)


def test_threshold_policy_takes_numpy_integers():
    policy = ThresholdPolicy(np.int64(3))
    assert policy.x == 3 and type(policy.x) is int
    assert ThresholdPolicy(2**62).x == 2**62


def test_threshold_zero_degenerate_queue():
    stream = generate_stream(PARAMS, 2000.0, seed=1)
    traj, trace, _ = run_simulation(stream, "threshold:x=0")
    assert not traj.post_event_queue.any()
    assert trace.count() == int((stream.marks == 1).sum())


def test_admit_all_decide():
    assert AdmitAllPolicy().decide(_state(5, [(0.0, 1)])) is False


def test_min_feasible_threshold_examples():
    assert min_feasible_threshold(ModelParams(0.9, 0.5)) == 2
    assert min_feasible_threshold(ModelParams(0.99, 0.5)) == 5
    # below-budget arrival rates need no threshold at all
    assert min_feasible_threshold(ModelParams(0.5, 0.7)) == 0


def test_min_feasible_threshold_monotone_in_lambda():
    for p in (0.5, 0.7):
        xs = [
            min_feasible_threshold(ModelParams(lam, p))
            for lam in np.linspace(1 - p + 0.02, 0.995, 25)
        ]
        assert all(a <= b for a, b in zip(xs, xs[1:]))


def _linear_min_feasible_threshold(params):
    """The reference: the first x whose stationary diversion rate fits the budget."""
    x = 0
    while bd_stationary(params, x).diversion_rate > params.divert_budget:
        x += 1
    return x


def test_min_feasible_threshold_matches_the_linear_scan():
    # lambda from just above 1 - p up to nextafter(1, 0): x* from 0 to 1631;
    # on three of these pairs the float rate rises by an ulp just past x*
    pairs = 0
    for p in (0.02, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        gaps = [2.0**-k for k in range(1, 53)] + [0.75, 0.9, 0.99]
        for lam in [1 - p * g for g in gaps] + [math.nextafter(1.0, 0.0)]:
            if 1 - p < lam < 1:
                params = ModelParams(lam, p)
                assert min_feasible_threshold(params) == _linear_min_feasible_threshold(params), (
                    p, lam)
                pairs += 1
    assert pairs == 661


def _linear_scan_grid():
    """The 661 (lambda, p) pairs of the linear-scan test above."""
    for p in (0.02, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        gaps = [2.0**-k for k in range(1, 53)] + [0.75, 0.9, 0.99]
        for lam in [1 - p * g for g in gaps] + [math.nextafter(1.0, 0.0)]:
            if 1 - p < lam < 1:
                yield ModelParams(lam, p)


def test_min_feasible_threshold_walks_from_the_closed_form(monkeypatch):
    # |x_hat - x*| + 2 laws at most, the largest of max(x_hat, x*) + 1 states
    calls = []

    def counted(params, x):
        calls.append(x)
        return bd_stationary(params, x)

    monkeypatch.setattr(policy_module, "bd_stationary", counted)
    pairs = 0
    for params in _linear_scan_grid():
        x_hat = closed_form_threshold(params)
        calls.clear()
        x_star = min_feasible_threshold(params)
        assert len(calls) <= abs(x_hat - x_star) + 2, (params, x_hat, x_star, calls)
        assert max(calls) <= max(x_hat, x_star), (params, x_hat, x_star, calls)
        pairs += 1
    assert pairs == 661


def test_closed_form_threshold_keeps_its_digits_near_critical_load():
    # one ulp above lambda = 1 - p both logarithms are ~1e-16 across, so
    # ln((1 - lambda)/p) in place of log1p would miss x* by ~1e3 at p = 1e-4
    for p in (1e-4, 1e-3, 0.01):
        params = ModelParams(math.nextafter(1 - p, 1.0), p)
        assert closed_form_threshold(params) == min_feasible_threshold(params) == round(1 / p) - 1


def test_min_feasible_threshold_solves_logarithmically_many_laws(monkeypatch):
    # the linear scan takes ~20 s here, one birth-death law per x up to 46514
    params = ModelParams(0.999999, 0.0001)
    calls = []

    def counted(params, x):
        calls.append(x)
        return bd_stationary(params, x)

    monkeypatch.setattr(policy_module, "bd_stationary", counted)
    x_star = min_feasible_threshold(params)
    assert x_star == 46514
    assert len(calls) <= 2 * math.log2(x_star) + 4
    assert bd_stationary(params, x_star).diversion_rate <= params.divert_budget
    assert bd_stationary(params, x_star - 1).diversion_rate > params.divert_budget


def test_every_lambda_at_p_half_takes_the_int8_scan():
    # x* + 32 < 2**7 at the largest lambda below 1, so every threshold:auto
    # cell at p = 0.5 walks its blocks in int8
    x_star = min_feasible_threshold(ModelParams(math.nextafter(1.0, 0.0), 0.5))
    assert x_star + policy_module._SCAN_BLOCK < 2**7


def test_windowed_drain_empty_queue_admits():
    policy = _drain(5.0)
    state = _state(0, [(0.0, 1), (1.0, 1), (2.0, 1)])
    assert policy.decide(state) is False
    assert policy.credit == 5.0  # no spend on admit


def test_windowed_drain_all_arrivals_window():
    policy = _drain(2.0)
    state = _state(5, [(0.0, 1), (1.0, 1), (2.0, 1)])
    assert policy.decide(state) is True
    assert policy.credit == 1.0
    assert _drain(0.5).decide(state) is False


def test_windowed_drain_zero_window_reduces_to_busy_test():
    # window holds only the current event: certify iff queue >= 1
    policy = _drain(9.0)
    assert policy.decide(_state(1, [(0.0, 1)])) is True
    assert policy.decide(_state(0, [(0.0, 1)])) is False


def test_windowed_drain_respects_visible_token_drain():
    policy = _drain(9.0)
    # queue 2, window shows three tokens: unreflected low point is 2-3 < 1
    state = _state(2, [(0.0, 1), (0.5, -1), (1.0, -1), (1.5, -1)])
    assert policy.decide(state) is False
    # queue 4 survives the same drain
    state = _state(4, [(0.0, 1), (0.5, -1), (1.0, -1), (1.5, -1)])
    assert policy.decide(state) is True


def test_budget_refill_accrues():
    # an empty queue is never certified, so each decision only accrues credit
    policy = _drain(0.0)
    assert policy.decide(_state(0, [(0.0, 1)], now=2.0)) is False
    assert policy.credit == pytest.approx(1.0)
    policy.decide(_state(0, [(0.0, 1)], now=100.0))
    assert policy.credit == pytest.approx(50.0)  # no ceiling
    policy.decide(_state(0, [(0.0, 1)], now=50.0))  # time never runs backwards
    assert policy.last_time == 100.0
    assert policy.credit == pytest.approx(50.0)
    policy.reset()
    assert (policy.credit, policy.last_time) == (policy.initial_credit, 0.0)


def test_budget_pathwise_bound():
    # diversions in [0, t] never exceed initial credit + p * t
    params = ModelParams(0.9, 0.5, window=6.0)
    stream = generate_stream(params, 5000.0 + 6.0, seed=5)
    policy = WindowedDrainPolicy(params)
    traj, trace, _ = run_simulation(stream, policy, t_end=5000.0)
    h_cum = np.cumsum(trace.decisions)
    n = h_cum.size
    bound = policy.initial_credit + params.divert_budget * stream.times[:n]
    assert np.all(h_cum <= bound + 1e-9)


def test_make_policy_parsing():
    assert isinstance(make_policy("admit-all"), AdmitAllPolicy)
    assert make_policy("threshold:x=7").x == 7
    assert make_policy("threshold:auto", PARAMS).x == 2
    assert isinstance(make_policy("windowed-drain", PARAMS), WindowedDrainPolicy)
    with pytest.raises(ConfigurationError):
        make_policy("nonsense")
    with pytest.raises(ConfigurationError):
        make_policy("threshold:x=two")
    with pytest.raises(ConfigurationError):
        make_policy("threshold:auto")  # needs params
    with pytest.raises(ConfigurationError):
        make_policy("windowed-drain")


def test_only_arrivals_diverted():
    stream = generate_stream(PARAMS, 3000.0 + 4.0, seed=9)
    for spec in ("threshold:auto", "windowed-drain", "admit-all"):
        _, trace, _ = run_simulation(stream, spec, t_end=3000.0)
        tokens = stream.marks[: trace.decisions.size] == -1
        assert not trace.decisions[tokens].any()


def test_threshold_queue_never_exceeds_threshold():
    stream = generate_stream(PARAMS, 3000.0, seed=10)
    for x, q0 in ((0, 0), (3, 1), (5, 5)):
        traj, _, _ = run_simulation(stream, ThresholdPolicy(x), q0=q0)
        assert traj.post_event_queue.max(initial=q0) <= x


def test_admit_all_dominates_every_policy_pathwise():
    for i in range(100):
        params = ModelParams(0.9, 0.5, window=3.0)
        stream = generate_stream(params, 300.0 + 3.0, replication_seed(77, i))
        base, _, _ = run_simulation(stream, "admit-all", t_end=300.0)
        for spec in ("threshold:x=1", "threshold:auto", "windowed-drain"):
            other, _, _ = run_simulation(stream, spec, t_end=300.0)
            assert np.all(base.post_event_queue >= other.post_event_queue)


def _splice(stream, cutoff, tail_seed, params):
    """Keep events up to `cutoff`, replace everything after independently."""
    fresh = generate_stream(params, stream.horizon, tail_seed)
    keep = stream.times <= cutoff
    late = fresh.times > cutoff
    times = np.concatenate([stream.times[keep], fresh.times[late]])
    marks = np.concatenate([stream.marks[keep], fresh.marks[late]])
    return EventStream(times, marks, stream.horizon, stream.params)


@pytest.mark.parametrize("spec", ["threshold:auto", "windowed-drain", "admit-all"])
def test_causality_decisions_blind_beyond_window(spec):
    params = ModelParams(0.9, 0.5, window=5.0)
    horizon = 400.0
    cutoff = 200.0
    any_late_difference = False
    for i in range(10):
        stream = generate_stream(params, horizon, replication_seed(21, i))
        spliced = _splice(stream, cutoff, replication_seed(22, i), params)
        _, trace_a, _ = run_simulation(stream, spec, t_end=horizon - params.window)
        _, trace_b, _ = run_simulation(spliced, spec, t_end=horizon - params.window)
        # decisions whose window closes before the splice point must agree
        n_safe = int(np.searchsorted(stream.times, cutoff - params.window, side="right"))
        assert np.array_equal(trace_a.decisions[:n_safe], trace_b.decisions[:n_safe])
        n_keep = int((stream.times <= cutoff).sum())
        any_late_difference |= not np.array_equal(
            trace_a.decisions[n_safe:n_keep], trace_b.decisions[n_safe:n_keep]
        )
    # non-vacuity: for window-reading policies the rewritten future must
    # actually flip some decision whose window straddles the splice
    if spec == "windowed-drain":
        assert any_late_difference


def test_full_horizon_window_never_adds_wasted_tokens():
    # with the certification horizon covering the whole run, every wasted
    # token under the drain policy is one admit-all would waste too
    horizon = 300.0
    for i in range(25):
        params = ModelParams(0.85, 0.4, window=horizon)
        stream = generate_stream(params, 2 * horizon, replication_seed(31, i))
        drain, d_trace, _ = run_simulation(stream, "windowed-drain", t_end=horizon)
        base, _, _ = run_simulation(stream, "admit-all", t_end=horizon)
        n = drain.pre_event_queue.size
        tokens = stream.marks[:n] == -1
        drain_waste = tokens & (drain.pre_event_queue == 0)
        base_waste = tokens & (base.pre_event_queue == 0)
        assert not (drain_waste & ~base_waste).any()


def test_policy_reset_confines_budget_to_one_run():
    params = ModelParams(0.9, 0.5, window=4.0)
    stream = generate_stream(params, 1000.0 + 4.0, seed=12)
    policy = WindowedDrainPolicy(params)
    _, t1, _ = run_simulation(stream, policy, t_end=1000.0)
    _, t2, _ = run_simulation(stream, policy, t_end=1000.0)
    assert np.array_equal(t1.decisions, t2.decisions)
