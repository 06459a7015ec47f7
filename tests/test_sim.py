import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qadmit import policy as policy_module
from qadmit.analytic import bd_stationary
from qadmit.errors import ConfigurationError, OutOfRangeError
from qadmit.policy import (
    AdmitAllPolicy,
    ThresholdPolicy,
    WindowedDrainPolicy,
    _window_end_indices,
    _window_lows,
)
from qadmit.sim import (
    SimMetrics,
    flow_identity_residuals,
    last_low_time,
    occupancy_fraction,
    run_simulation,
    window_diversions,
)
from qadmit.stream import EventStream, ModelParams, count_events, generate_stream, replication_seed

PARAMS = ModelParams(0.9, 0.5, window=4.0)


def hand_stream(pairs, horizon, params=None):
    return EventStream.from_pairs(pairs, horizon, params)


def test_admit_all_hand_trace():
    s = hand_stream([(1.0, 1), (2.0, -1), (3.0, -1)], 4.0)
    traj, trace, m = run_simulation(s, "admit-all")
    assert traj.post_event_queue.tolist() == [1, 0, 0]
    assert traj.pre_event_queue.tolist() == [0, 1, 0]
    assert m.wasted_count == 1  # token at t=3 finds an empty queue
    assert trace.count() == 0


def test_threshold_zero_hand_counts():
    s = generate_stream(PARAMS, 500.0, seed=4)
    traj, trace, m = run_simulation(s, "threshold:x=0")
    assert not traj.post_event_queue.any()
    assert m.wasted_count == int((s.marks == -1).sum())
    assert trace.count() == int((s.marks == 1).sum())


def test_token_only_stream_from_q0():
    s = hand_stream([(1.0, -1), (2.0, -1), (3.0, -1)], 4.0)
    traj, trace, _ = run_simulation(s, "admit-all", q0=10)
    assert traj.post_event_queue.tolist() == [9, 8, 7]
    assert flow_identity_residuals(traj, trace, s).tolist() == [0, 0, 0]


def test_unknown_policy_handle():
    s = hand_stream([(1.0, 1)], 2.0)
    with pytest.raises(ConfigurationError):
        run_simulation(s, "drain-all")
    with pytest.raises(ConfigurationError):
        run_simulation(s, object())
    with pytest.raises(ValueError):
        run_simulation(s, "admit-all", q0=-1)


def test_a_policy_without_decide_is_rejected_on_an_empty_run():
    # t_end before the first epoch simulates no event; the handle is checked all the same
    s = hand_stream([(1.0, 1), (2.0, -1)], 3.0)
    assert run_simulation(s, "admit-all", t_end=0.5)[2].n_events == 0
    with pytest.raises(ConfigurationError, match="decide"):
        run_simulation(s, object(), t_end=0.5)


@pytest.mark.parametrize("field, value", [
    ("burn_in", -0.5), ("burn_in", 1.0), ("burn_in", float("nan")), ("q0", 1.5),
    ("q0", True), ("q0", np.bool_(True)),
])
def test_run_simulation_rejects_bad_burn_in_and_q0(field, value):
    s = generate_stream(PARAMS, 200.0, seed=5)
    with pytest.raises(ConfigurationError, match=field):
        run_simulation(s, "admit-all", **{field: value})


def test_run_simulation_rejects_a_q0_the_int64_path_cannot_hold():
    s = hand_stream([(1.0, 1), (2.0, 1), (3.0, -1)], 4.0)
    top = np.iinfo(np.int64).max
    with pytest.raises(ConfigurationError, match="q0"):
        run_simulation(s, "threshold:x=3", q0=top)  # two arrivals above x would wrap
    with pytest.raises(ConfigurationError, match="q0"):
        run_simulation(s, "admit-all", q0=top + 1)  # no int64 holds it
    traj, trace, _ = run_simulation(s, "threshold:x=3", q0=top - 3)  # q0 + 3 events fits
    assert traj.post_event_queue.tolist() == [top - 2, top - 1, top - 2]
    assert not flow_identity_residuals(traj, trace, s).any()


def test_run_simulation_takes_a_numpy_integer_q0():
    s = generate_stream(PARAMS, 200.0, seed=5)
    traj, trace, _ = run_simulation(s, "admit-all", q0=np.int64(2))
    assert traj.initial == 2
    assert not flow_identity_residuals(traj, trace, s).any()


def test_threshold_mean_queue_matches_oracle():
    params = ModelParams(0.9, 0.5)
    sol = bd_stationary(params, 2)
    means = []
    for i in range(4):
        s = generate_stream(params, 2e5, replication_seed(50, i))
        _, _, m = run_simulation(s, "threshold:auto")
        means.append(m.mean_queue_event)
    assert np.mean(means) == pytest.approx(sol.mean_queue, rel=0.02)


def test_event_and_time_averages_agree_for_poisson_sampling():
    # PASTA: event-sampled and time-integrated queue averages coincide
    s = generate_stream(PARAMS, 2e5, seed=51)
    _, _, m = run_simulation(s, "threshold:auto")
    assert m.mean_queue_event == pytest.approx(m.mean_queue_time, rel=0.02)


def test_flow_identity_zero_everywhere_mixed_policies():
    for i, spec in enumerate(
        ["admit-all", "threshold:x=0", "threshold:auto", "windowed-drain"] * 3
    ):
        params = ModelParams(0.9, 0.5, window=3.0)
        s = generate_stream(params, 500.0 + 3.0, replication_seed(60, i))
        q0 = i % 5
        traj, trace, _ = run_simulation(s, spec, q0=q0, t_end=500.0)
        residuals = flow_identity_residuals(traj, trace, s)
        assert not residuals.any()
        for t in (0.0, 123.4, 500.0):
            assert not residuals[: count_events(s, t)].any()


def test_flow_identity_empty_stream():
    s = hand_stream([], 5.0)
    traj, trace, m = run_simulation(s, "admit-all", q0=3)
    assert flow_identity_residuals(traj, trace, s).size == 0
    assert m.n_events == 0


def test_flow_identity_residuals_see_a_corrupted_path():
    # a queue jump no event explains and a flipped decision both show in
    # the residuals
    s = generate_stream(PARAMS, 80.0 + PARAMS.window, replication_seed(61, 0))
    traj, trace, _ = run_simulation(s, "windowed-drain", q0=2, t_end=80.0)
    path = np.concatenate(([traj.initial], traj.post_event_queue))
    path[path.size // 3 :] += 3
    decisions = trace.decisions.copy()
    decisions[2 * decisions.size // 3] ^= 1
    bad = dataclasses.replace(traj, pre_event_queue=path[:-1], post_event_queue=path[1:])
    bad_trace = dataclasses.replace(trace, decisions=decisions)
    want = flow_identity_residuals(bad, bad_trace, s)
    assert len(set(want.tolist())) >= 3  # zero, the jump, the jump plus the flip


@settings(max_examples=40, deadline=None)
@given(
    marks=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=60),
    q0=st.integers(0, 6),
    x=st.integers(0, 4),
)
def test_flow_identity_property_hand_streams(marks, q0, x):
    times = np.arange(1.0, len(marks) + 1.0)
    s = EventStream(times, np.array(marks), horizon=len(marks) + 1.0)
    traj, trace, _ = run_simulation(s, ThresholdPolicy(x), q0=q0)
    assert not flow_identity_residuals(traj, trace, s).any()
    # unit jumps and nonnegativity
    post, pre = traj.post_event_queue, traj.pre_event_queue
    assert np.all(np.abs(post - pre) <= 1)
    assert post.min(initial=q0) >= 0


class _ReplayPolicy:
    """Feed back a fixed arrival-decision sequence."""

    lookahead = 0.0

    def __init__(self, decisions):
        self.decisions = list(decisions)
        self._i = 0

    def reset(self):
        self._i = 0

    def decide(self, state):
        d = self.decisions[self._i]
        self._i += 1
        return bool(d)


@settings(max_examples=200, deadline=None)
@given(
    marks=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=60),
    q0=st.integers(0, 6),
    choices=st.lists(st.booleans(), min_size=60, max_size=60),
)
@example(marks=[1, -1, 1, 1, -1, -1, 1], q0=0, choices=[True] * 60)
def test_trace_holds_what_decide_returned(marks, q0, choices):
    # H is read off the queue path, so tie it to the decide() answers: they
    # must come back on arrivals, and every token must read 0, also one
    # that finds the queue empty
    arrivals = [i for i, mark in enumerate(marks) if mark == 1]
    choices = choices[: len(arrivals)]
    s = EventStream(np.arange(1.0, len(marks) + 1.0), np.array(marks), len(marks) + 1.0)
    traj, trace, _ = run_simulation(s, _ReplayPolicy(choices), q0=q0)
    expected = np.zeros(len(marks), dtype=np.int8)
    expected[arrivals] = choices
    assert trace.decisions.dtype == np.int8
    assert trace.decisions.tolist() == expected.tolist()
    assert not flow_identity_residuals(traj, trace, s).any()


def test_removing_one_diversion_dominates_pathwise():
    params = ModelParams(0.9, 0.5, window=2.0)
    s = generate_stream(params, 120.0 + 2.0, replication_seed(70, 0))
    traj, trace, _ = run_simulation(s, "threshold:auto", t_end=120.0)
    n = traj.pre_event_queue.size
    arrivals = np.flatnonzero(s.marks[:n] == 1)
    base_decisions = trace.decisions[arrivals]
    for j in np.flatnonzero(base_decisions)[:10]:
        flipped = base_decisions.copy()
        flipped[j] = 0
        alt, alt_trace, _ = run_simulation(s, _ReplayPolicy(flipped), t_end=120.0)
        assert np.all(alt.post_event_queue >= traj.post_event_queue)
        assert not flow_identity_residuals(alt, alt_trace, s).any()


def test_window_diversions():
    s = generate_stream(PARAMS, 300.0, seed=71)
    traj, trace, _ = run_simulation(s, "threshold:x=0")
    assert window_diversions(trace, s, 50.0, 50.0) == 0
    arrivals_in = int(
        ((s.marks == 1) & (s.times > 50.0) & (s.times <= 120.0)).sum()
    )
    assert window_diversions(trace, s, 50.0, 120.0) == arrivals_in
    _, trace_all, _ = run_simulation(s, "admit-all")
    assert window_diversions(trace_all, s, 0.0, 300.0) == 0
    with pytest.raises(ValueError):
        window_diversions(trace, s, 10.0, 5.0)


def test_occupancy_fraction_edges_and_hand_value():
    s = hand_stream([(1.0, 1), (2.0, 1), (3.0, -1)], 4.0)
    traj, _, _ = run_simulation(s, "admit-all")
    assert occupancy_fraction(traj, s, 10, 0.0, 4.0) == 1.0
    assert occupancy_fraction(traj, s, -1, 0.0, 4.0) == 0.0
    # Q path: 0 on [0,1), 1 on [1,2), 2 on [2,3), 1 on [3,4] -> Q<=1 on 3 of 4
    assert occupancy_fraction(traj, s, 1, 0.0, 4.0) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        occupancy_fraction(traj, s, 1, 2.0, 2.0)


def test_occupancy_fraction_rejects_t1_past_the_run():
    s = hand_stream([(1.0, 1), (2.0, 1), (3.0, -1)], 4.0)
    traj, _, _ = run_simulation(s, "admit-all", t_end=3.5)
    with pytest.raises(OutOfRangeError):
        occupancy_fraction(traj, s, 1, 0.0, 4.0)


def test_occupancy_matches_stationary_mass():
    params = ModelParams(0.9, 0.5)
    sol = bd_stationary(params, 2)
    s = generate_stream(params, 1e5, seed=72)
    traj, _, _ = run_simulation(s, "threshold:auto")
    frac = occupancy_fraction(traj, s, 1, 1e4, 1e5)
    assert frac == pytest.approx(float(sol.probs[:2].sum()), abs=0.02)
    # time below twice the stationary mean is at least one half (Markov)
    assert occupancy_fraction(traj, s, 2 * sol.mean_queue, 1e4, 1e5) >= 0.5


def test_last_low_time_cases():
    s = hand_stream([(1.0, 1), (2.0, 1), (3.5, -1), (4.0, 1)], 6.0)
    traj, _, _ = run_simulation(s, "admit-all", q0=0)
    # Q: 0,[0,1) 1,[1,2) 2,[2,3.5) 1,[3.5,4) 2,[4,6]
    assert last_low_time(traj, s, -1, 0.0, 6.0) == 0.0  # never that low
    assert last_low_time(traj, s, 10, 0.0, 6.0) == 6.0  # always low -> duration
    # last dip to <=1 is [3.5, 4.0); sup of the low set is the jump epoch 4.0
    assert last_low_time(traj, s, 1, 0.0, 6.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        last_low_time(traj, s, 1, 0.0, 0.0)


def test_last_low_time_five_event_dip():
    # dip below the level at relative 3.2, recovery at 3.5, window of 10
    s = hand_stream(
        [(1.0, 1), (2.0, 1), (3.2, -1), (3.5, 1), (9.0, 1)], 12.0
    )
    traj, _, _ = run_simulation(s, "admit-all", q0=1)
    # Q: 1,2,3 then 2 on [3.2,3.5), 3 on [3.5,9), 4 after
    assert last_low_time(traj, s, 2, 0.0, 10.0) == pytest.approx(3.5)


def test_last_low_time_out_of_range():
    s = hand_stream([(1.0, 1)], 2.0)
    traj, _, _ = run_simulation(s, "admit-all")
    with pytest.raises(OutOfRangeError):
        last_low_time(traj, s, 1, 0.0, 3.0)


def test_last_low_time_window_right_open():
    # a drop to the low level exactly at the window end lies outside [0, B)
    s = hand_stream([(1.0, 1), (2.0, 1), (5.0, -1)], 6.0)
    traj, _, _ = run_simulation(s, "admit-all", q0=0)
    # Q: 0 on [0,1), 1 on [1,2), 2 on [2,5), 1 at 5.0 = window end
    assert last_low_time(traj, s, 1, 0.0, 5.0) == pytest.approx(2.0)
    # widening the window past the drop picks it up again
    assert last_low_time(traj, s, 1, 0.0, 6.0) == pytest.approx(6.0)


def test_metrics_diversion_rate_uses_nominal_event_rate():
    params = ModelParams(0.9, 0.5)
    s = generate_stream(params, 5e4, seed=73)
    _, trace, m = run_simulation(s, "threshold:auto", burn_in=0.0)
    expected = params.total_rate * trace.count() / m.n_events
    assert m.diversion_rate == pytest.approx(expected)
    sol = bd_stationary(params, 2)
    assert m.diversion_rate == pytest.approx(sol.diversion_rate, abs=0.02)


def test_burn_in_discards_prefix():
    params = ModelParams(0.9, 0.5)
    s = generate_stream(params, 2e4, seed=74)
    traj, trace, m = run_simulation(s, "threshold:auto", q0=0, burn_in=0.5)
    n = m.n_events
    assert m.n_burned == n // 2
    assert m.mean_queue_event == pytest.approx(
        traj.pre_event_queue[m.n_burned:].mean()
    )
    # wasted_count stays a raw full-path quantity
    assert m.wasted_count == int(
        ((s.marks[:n] == -1) & (traj.pre_event_queue == 0)).sum()
    )


def test_t_end_truncates_and_lookahead_sees_past_it():
    params = ModelParams(0.9, 0.5, window=5.0)
    s = generate_stream(params, 105.0, seed=75)
    traj, trace, m = run_simulation(s, "windowed-drain", t_end=100.0)
    assert traj.pre_event_queue.size == int((s.times <= 100.0).sum())
    assert traj.t_end == 100.0
    with pytest.raises(OutOfRangeError):
        traj.queue_at(s, 101.0)


class _Delegating:
    """Run a built-in policy through the generic ``decide()`` path."""

    def __init__(self, inner):
        self.inner = inner
        self.lookahead = inner.lookahead

    def reset(self):
        self.inner.reset()

    def decide(self, state):
        return self.inner.decide(state)


def test_fast_paths_match_generic_reference():
    params = ModelParams(0.9, 0.5, window=4.0)
    s = generate_stream(params, 800.0 + 4.0, seed=76)
    for fast, generic in (
        (ThresholdPolicy(2), _Delegating(ThresholdPolicy(2))),
        (WindowedDrainPolicy(params), _Delegating(WindowedDrainPolicy(params))),
    ):
        tf, hf, _ = run_simulation(s, fast, t_end=800.0)
        tg, hg, _ = run_simulation(s, generic, t_end=800.0)
        assert np.array_equal(hf.decisions, hg.decisions)
        assert np.array_equal(tf.post_event_queue, tg.post_event_queue)


class _Recording(_Delegating):
    """Delegates, and keeps each (now, window) the generic path shows it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seen = []

    def decide(self, state):
        self.seen.append((state.now, state.window))
        return super().decide(state)


@pytest.mark.parametrize("window", [0.0, 0.7, 4.0, 50.0])
def test_generic_windows_equal_the_per_element_build(window):
    params = ModelParams(0.9, 0.5, window=window)
    s = generate_stream(params, 300.0 + window, seed=81)
    rec = _Recording(WindowedDrainPolicy(params) if window > 0 else ThresholdPolicy(2))
    run_simulation(s, rec, t_end=300.0)
    assert len(rec.seen) == int(((s.times <= 300.0) & (s.marks == 1)).sum())
    for now, win in rec.seen:
        i = int(np.searchsorted(s.times, now))
        end = int(np.searchsorted(s.times, s.times[i] + window, side="right"))
        # one float(times[j]) - now and one int(marks[j]) per window entry
        expected = [(float(s.times[j]) - now, int(s.marks[j])) for j in range(i, end)]
        assert win == expected
        assert all(type(d) is float and type(m) is int for d, m in win)
    assert max(len(win) for _, win in rec.seen) > (1 if window > 0 else 0)


def _assert_kernel_matches_generic(s, fast_policy, slow_policy, q0, t_end=None):
    """Run ``fast_policy``'s kernel and ``slow_policy`` through ``decide()``; return the first."""
    fast_run = run_simulation(s, fast_policy, q0=q0, t_end=t_end)
    tf, hf, _ = fast_run
    tg, hg, _ = run_simulation(s, _Delegating(slow_policy), q0=q0, t_end=t_end)
    for fast, generic in (
        (hf.decisions, hg.decisions),
        (tf.pre_event_queue, tg.pre_event_queue),
        (tf.post_event_queue, tg.post_event_queue),
    ):
        assert fast.dtype == generic.dtype
        assert np.array_equal(fast, generic)
    return fast_run


def _unit_spaced(marks):
    return EventStream(np.arange(1.0, len(marks) + 1.0), np.asarray(marks), len(marks) + 1.0)


def _assert_threshold_matches_generic(marks, q0, x):
    _assert_kernel_matches_generic(_unit_spaced(marks), ThresholdPolicy(x), ThresholdPolicy(x), q0)


@settings(max_examples=150, deadline=None)
@given(
    marks=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=400),
    q0=st.integers(0, 12),
)
def test_admit_all_kernel_matches_generic_property(marks, q0):
    _assert_kernel_matches_generic(_unit_spaced(marks), AdmitAllPolicy(), AdmitAllPolicy(), q0)


@pytest.mark.parametrize("q0", [1, 5, 20])
def test_admit_all_kernel_matches_generic_on_generated_streams(q0):
    # a drift of 0.01 per unit time: the queue climbs from q0 only slowly, and empties
    s = generate_stream(ModelParams(0.51, 0.5), 1500.0, seed=q0)
    _, trace, metrics = _assert_kernel_matches_generic(s, AdmitAllPolicy(), AdmitAllPolicy(), q0)
    assert not trace.decisions.any()
    assert metrics.wasted_count > 0  # the queue empties, so the reflection acts


@settings(max_examples=150, deadline=None)
@given(
    marks=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=400),
    q0=st.integers(0, 12),
    x=st.integers(0, 6),
)
def test_threshold_scan_matches_generic_property(marks, q0, x):
    _assert_threshold_matches_generic(marks, q0, x)


def test_threshold_numpy_integer_kernel_matches_generic():
    s = generate_stream(ModelParams(0.9, 0.5), 200.0, 1)
    traj, _, _ = _assert_kernel_matches_generic(
        s, ThresholdPolicy(np.int64(3)), ThresholdPolicy(np.int64(3)), 0)
    assert traj.post_event_queue.max() == 3


_B = policy_module._SCAN_BLOCK

# nb = 1 runs no scan pass; nb = 2**k ends on a pass that covers half the
# maps, nb = 2**k + 1 on one that covers one; each with a last block that
# is whole, a single step, or one step short of whole
_SCAN_COUNTS = (1, 2, 3, 4, 5, 16, 17, 64, 65, 256, 257, 1024, 1025)
_SCAN_CASES = {nb: [nb * _B, (nb - 1) * _B + 1, nb * _B - 1] for nb in _SCAN_COUNTS}


def test_scan_block_geometry_cases_cover_every_count():
    for nb, lengths in _SCAN_CASES.items():
        assert [-(-n // _B) for n in lengths] == [nb] * 3
        assert [n % _B for n in lengths] == [0, 1, _B - 1]


# n = 1 to 17 make one padded block; 1023 to 1025 make 32 blocks whose last
# is one step short, 32 whole ones, and 33 whose last is a single step
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 15, 16, 17, 1023, 1024, 1025])
@pytest.mark.parametrize("x, q0", [(0, 0), (0, 3), (2, 0), (3, 3), (2, 9)])
def test_threshold_scan_block_lengths(n, x, q0):
    rng = np.random.default_rng(n * 100 + x * 10 + q0)
    marks = np.where(rng.random(n) < 0.55, 1, -1)
    _assert_threshold_matches_generic(marks, q0, x)


@pytest.mark.parametrize("nb", _SCAN_COUNTS)
@pytest.mark.parametrize("x, q0", [(0, 0), (0, 3), (2, 0), (3, 3), (2, 9)])
def test_threshold_scan_block_counts(nb, x, q0):
    rng = np.random.default_rng(nb * 100 + x * 10 + q0)
    for n in _SCAN_CASES[nb]:
        marks = np.where(rng.random(n) < 0.55, 1, -1)
        _assert_threshold_matches_generic(marks, q0, x)


def test_threshold_scan_above_x_reaching_and_never_reaching():
    # q0 > x: the free walk q0 + S until it first equals x
    _assert_threshold_matches_generic([-1, -1, 1, -1, 1, 1, 1], q0=4, x=2)
    _assert_threshold_matches_generic([-1, -1, 1, 1, -1], q0=4, x=1)  # never reaches
    _assert_threshold_matches_generic([-1, -1], q0=3, x=1)  # reaches at the last event
    _assert_threshold_matches_generic([1], q0=2, x=0)


def test_int8_marks_widen_before_the_walk_is_summed():
    # the free walk climbs past the int8 range before it comes back down
    marks = [1] * 300 + [-1] * 400
    _assert_threshold_matches_generic(marks, q0=3, x=2)
    s = EventStream(np.arange(1.0, 701.0), marks, 701.0)
    traj, _, _ = run_simulation(s, "admit-all", q0=3)
    assert traj.post_event_queue.max() == 303 and traj.post_event_queue[-1] == 0


def _scan_lengths():
    # one padded block, then around 1 and 93 whole blocks: a last block one
    # step short, whole, or of a single step
    return [1, 2, 3, _B - 1, _B, _B + 1, 93 * _B - 1, 93 * _B, 93 * _B + 1]


@pytest.mark.parametrize("x", [0, 1, 4, 62, 63, 64, 94, 95, 96, 126, 127, 300])
def test_threshold_scan_block_geometry(x):
    rng = np.random.default_rng(x)
    for n in _scan_lengths():
        # the walk climbs to x and then hugs it, so both clip bounds act
        marks = np.where(rng.random(n) < 0.55, 1, -1)
        for q0 in (0, x):
            _assert_threshold_matches_generic(marks, q0, x)
        # from x, a block of arrivals takes the scan to x + 32, the top of its
        # dtype (x = 94 to 96 straddle the int8 edge)
        _assert_threshold_matches_generic([1] * n, x, x)
        # from q0 = x + 2 two tokens bring the queue to x, and the scan runs
        # over the n marks after them
        _assert_threshold_matches_generic([-1, -1, *marks], x + 2, x)


# x + 32 just below and at 2**7, where the int8 walks end, and just below
# and at 2**15, well inside the int64 walks that every larger x takes
@pytest.mark.parametrize("edge", [2**7 - 1, 2**7, 2**15 - 1, 2**15])
@pytest.mark.parametrize("n", [9, 50, 500, 3000, 31256])  # 1, 2, 16, 94 and 977 blocks
def test_threshold_scan_dtype_edges(edge, n):
    x = edge - _B
    rng = np.random.default_rng(edge + n)
    marks = np.where(rng.random(n) < 0.5, 1, -1)
    # a block of arrivals from x lifts the free walk plus start to x + 32 =
    # edge (n = 9 fills no block, so only the fifth stream takes it there);
    # tokens from 0 sink the free walk as far as -32; the q0 > x prefix
    # reaches x first
    for stream_marks, q0 in (([1] * n, x), ([-1] * n, 0), (marks, x), (marks, 0),
                             ([1] * _B + [-1] * (n + _B), x), ([-1, -1, *marks], x + 2)):
        _assert_threshold_matches_generic(stream_marks, q0, x)


def test_threshold_scan_wide_dtype():
    # x + 32 >= 2**15: int64 walks, far past the int8 edge
    big = 2**15
    marks = [1, 1, 1, -1, 1, 1, -1, -1, 1, 1, 1, 1, -1, 1, 1, 1]
    _assert_threshold_matches_generic(marks, q0=big - 4, x=big - 3)
    _assert_threshold_matches_generic(marks, q0=big + 2, x=big)
    _assert_threshold_matches_generic([-1, -1, -1, 1, 1], q0=big + 3, x=big)


def _python_clip_path(marks, q, x):
    path = []
    for m in marks:
        q = min(max(q + m, 0), x)
        path.append(q)
    return path


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5000),
    x=st.integers(0, 300),
    q=st.integers(0, 300),
    p=st.sampled_from([0.3, 0.5, 0.55, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5000, x=300, q=150, p=0.8, seed=0)
@example(n=4097, x=0, q=0, p=0.5, seed=1)
def test_clip_scan_matches_a_python_loop(n, x, q, p, seed):
    # thousands of marks take the scan through up to 8 passes, well past
    # the decide() comparisons above
    q = min(q, x)
    marks = np.where(np.random.default_rng(seed).random(n) < p, 1, -1).astype(np.int8)
    out = np.empty(n, dtype=np.int64)
    policy_module._clip_scan(marks, q, x, out)
    assert out.tolist() == _python_clip_path(marks.tolist(), q, x)


def _assert_drain_matches_generic(s, params, q0, t_end):
    fast_policy, slow_policy = WindowedDrainPolicy(params), WindowedDrainPolicy(params)
    _, hf, _ = _assert_kernel_matches_generic(s, fast_policy, slow_policy, q0, t_end)
    # the kernel leaves the budget where decide() leaves it
    assert fast_policy.credit == slow_policy.credit
    assert fast_policy.last_time == slow_policy.last_time
    return hf


@settings(max_examples=150, deadline=None)
@given(
    # short gaps, and long quiet stretches that refill the credit
    gaps=st.lists(st.one_of(st.floats(0.01, 2.0), st.floats(20.0, 200.0)), min_size=1,
                  max_size=300),
    data=st.data(),
    q0=st.integers(0, 6),
    window=st.sampled_from([0.0, 0.5, 3.0, 1e5]),  # 1e5 outlasts every stream
    p=st.sampled_from([0.2, 0.5]),
    t_end_frac=st.sampled_from([0.3, 0.999, 1.0]),
)
def test_windowed_drain_kernel_matches_generic_property(gaps, data, q0, window, p, t_end_frac):
    times = np.cumsum(gaps)
    # arrival-heavy marks, so credit runs out as well as certification failing
    marks = data.draw(st.lists(st.sampled_from([1, 1, -1]), min_size=len(gaps),
                               max_size=len(gaps)))
    horizon = float(times[-1]) + window
    s = EventStream(times, marks, horizon)
    params = ModelParams(0.9, p, window)
    _assert_drain_matches_generic(s, params, q0, t_end_frac * float(times[-1]))


@pytest.mark.parametrize("window", [0.0, 2.0, 40.0, 5000.0])
@pytest.mark.parametrize("q0", [0, 3, 6])
def test_windowed_drain_kernel_matches_generic_on_generated_streams(window, q0):
    params = ModelParams(0.96875, 0.5, window)
    s = generate_stream(params, 1500.0 + window, seed=int(window) + q0)
    for t_end in (1500.0, 700.0):
        hs = _assert_drain_matches_generic(s, params, q0, t_end)
        assert hs.decisions.any()


@pytest.mark.parametrize("p, q0, pairs, expected", [
    # a burst spends the initial credit, a quiet stretch refills it, and the
    # next burst diverts again
    (0.5, 0, [(1.0 + 0.01 * i, 1) for i in range(6)] + [(100.0 + 0.01 * i, 1) for i in range(6)],
     [0, 1, 0, 0, 0, 0] + [1] * 6),
    # credit of exactly 1.0 (1 + 0.25 * 2 - 1 + 0.25 * 2) still pays for a diversion
    (0.25, 2, [(2.0, 1), (4.0, 1)], [1, 1]),
])
def test_windowed_drain_kernel_hand_streams(p, q0, pairs, expected):
    params = ModelParams(0.9, p, 0.0)  # W = 0 certifies on the queue alone
    s = hand_stream(pairs, pairs[-1][0] + 1.0, params)
    hs = _assert_drain_matches_generic(s, params, q0, s.horizon)
    assert hs.decisions.tolist() == expected


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("window", [0.0, 3.0, 40.0])
def test_windowed_drain_kernel_matches_generic_across_blocks(monkeypatch, block, window):
    # at rate ~1.47 a window of 40 holds ~59 events, so it spans many blocks,
    # and the credit and queue carry across every block edge
    monkeypatch.setattr(policy_module, "_DRAIN_BLOCK", block)
    params = ModelParams(0.96875, 0.5, window)
    s = generate_stream(params, 300.0 + window, seed=block)
    for q0, t_end in ((0, 300.0), (4, 300.0), (2, float(s.times[-1]))):
        hs = _assert_drain_matches_generic(s, params, q0, t_end)
        assert hs.decisions.any()


@pytest.mark.parametrize("horizon", [1e5, 3e5])
@pytest.mark.parametrize("window", [8 * math.log(32), 200.0])
def test_windowed_drain_run_memory_per_event(horizon, window):
    # the kernel's arrays and lists span one block, so the peak is the
    # stream and the path (as for threshold) plus a fixed per-block term
    params = ModelParams(1 - 2**-5, 0.5, window)
    run_simulation(generate_stream(params, 100.0 + window, seed=0), "windowed-drain",
                   t_end=100.0)  # warm caches
    tracemalloc.start()
    try:
        s = generate_stream(params, horizon + window, seed=3)
        run_simulation(s, "windowed-drain", t_end=horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(s) <= 48.0


# -- the window lows behind the windowed-drain kernel ---------------------------

# window spans (later events in a full window): 0 (W = 0), where every
# reduceat segment is empty; 2**j - 1, 2**j and 2**j + 1 for j = 0..6, short
# and long spans on both sides of each power of two, where a minimum built
# from power-of-two tables would split a window; and one window that covers
# the whole stream, whose reduceat runs over all of prefix
LEVEL_SPANS = sorted({2**j + d for j in range(7) for d in (-1, 0, 1)}) + [10**6]


def _window_lows_oracle(prefix, ends):
    return [min(0, int(prefix[i + 2 : e + 2].min()) - int(prefix[i + 1])) if e > i else 0
            for i, e in enumerate(ends.tolist())]


def _evenly_spaced(n, dt, seed, horizon_pad=0.0):
    """n events dt apart, so a window of span * dt holds exactly span later events."""
    times = dt * np.arange(1, n + 1)
    marks = np.random.default_rng(seed).choice([1, -1], size=n)
    return EventStream(times, marks, float(times[-1]) + horizon_pad)


@pytest.mark.parametrize("span", LEVEL_SPANS)
@pytest.mark.parametrize("dt", [1.0, 0.25])
def test_window_lows_match_brute_force(span, dt):
    s = _evenly_spaced(300, dt, seed=span)
    n = s.marks.size
    for n_sim in (n, n // 2):  # windows of the first half reach past its end
        ends = _window_end_indices(s.times, span * dt, n_sim)
        full = min(n_sim, max(n - span, 0))  # windows that end inside the stream
        assert (ends[:full] == np.arange(full) + span).all()
        if span >= n:
            assert (ends == n - 1).all()
        lows = _window_lows(s.prefix, ends)
        assert all(type(v) is int for v in lows)
        assert lows == _window_lows_oracle(s.prefix, ends)
        if span == 0:
            assert lows == [0] * n_sim


@settings(max_examples=150, deadline=None)
@given(
    span=st.sampled_from(LEVEL_SPANS),
    n=st.integers(1, 200),
    dt=st.sampled_from([1.0, 0.25, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    q0=st.integers(0, 6),
    p=st.sampled_from([0.2, 0.5]),
    t_end_frac=st.sampled_from([0.3, 1.0]),
)
def test_windowed_drain_kernel_matches_generic_at_level_spans(span, n, dt, seed, q0, p,
                                                              t_end_frac):
    s = _evenly_spaced(n, dt, seed, horizon_pad=span * dt)
    params = ModelParams(0.9, p, span * dt)
    _assert_drain_matches_generic(s, params, q0, t_end_frac * float(s.times[-1]))


# -- the one-buffer data path ---------------------------------------------------


def _oracle_metrics(stream, traj, trace, burn_in):
    """The metrics computed with fresh arrays: concatenated bounds, diff, product."""
    pre, post, hs = traj.pre_event_queue, traj.post_event_queue, trace.decisions
    n, t_end = pre.size, traj.t_end
    wasted = int(((stream.marks[:n] == -1) & (pre == 0)).sum())
    n_burn = int(burn_in * n)
    t_start = float(stream.times[n_burn - 1]) if n_burn >= 1 else 0.0
    bounds = np.concatenate(([t_start], stream.times[n_burn:n], [t_end]))
    values = np.concatenate(([post[n_burn - 1] if n_burn >= 1 else traj.initial], post[n_burn:]))
    n_used = n - n_burn
    if stream.params is not None:
        rate = stream.params.total_rate
    else:
        rate = n_used / (t_end - t_start) if t_end > t_start else 0.0
    return SimMetrics(
        mean_queue_event=float(pre[n_burn:].mean()),
        mean_queue_time=float((values * np.diff(bounds)).sum() / (t_end - t_start)),
        diversion_rate=rate * float(hs[n_burn:].sum()) / n_used if n_used else 0.0,
        wasted_count=wasted,
        wasted_rate=wasted / t_end if t_end > 0 else 0.0,
        n_events=n,
        n_burned=n_burn,
    )


def _assert_metrics_match_oracle(s, policy, q0, t_end, burn_in):
    traj, trace, m = run_simulation(s, policy, q0=q0, t_end=t_end, burn_in=burn_in)
    want = _oracle_metrics(s, traj, trace, burn_in)
    for f in dataclasses.fields(SimMetrics):
        assert getattr(m, f.name) == getattr(want, f.name), f.name
    return m


@settings(max_examples=150, deadline=None)
@given(
    gaps=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=600),
    data=st.data(),
    q0=st.integers(0, 8),
    burn_in=st.sampled_from([0.0, 0.1, 0.999]),
    past_end=st.booleans(),
    policy=st.sampled_from(["admit-all", "threshold:x=0", "threshold:x=3"]),
)
def test_metrics_match_fresh_array_oracle(gaps, data, q0, burn_in, past_end, policy):
    times = np.cumsum(gaps)
    marks = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(gaps), max_size=len(gaps)))
    horizon = float(times[-1]) + (1.5 if past_end else 0.0)
    s = EventStream(times, marks, horizon)
    _assert_metrics_match_oracle(s, policy, q0, horizon, burn_in)


@pytest.mark.parametrize("burn_in", [0.0, 0.1, 0.999])
@pytest.mark.parametrize("q0", [0, 5])
def test_metrics_match_oracle_on_generated_streams(burn_in, q0):
    # long enough for numpy's pairwise summation to block the sum
    s = generate_stream(ModelParams(0.96875, 0.5), 5000.0, seed=11)
    _assert_metrics_match_oracle(s, "threshold:auto", q0, 5000.0, burn_in)
    _assert_metrics_match_oracle(s, "admit-all", q0, float(s.times[-1]), burn_in)
    _assert_metrics_match_oracle(s, "threshold:x=2", q0, float(s.times[0]), burn_in)


# the largest burn-in below 1 still leaves one used event, the premise of the
# metrics' division by n_used and by t_end - t_start
@pytest.mark.parametrize("marks", [
    [1], [-1, 1], [1, 1, -1], [1, -1, 1, 1, -1, -1, -1, 1, 1, 1, -1] * 3,
])
@pytest.mark.parametrize("params", [None, ModelParams(0.9, 0.5)])
@pytest.mark.parametrize("past_end", [0.0, 1.5])
def test_metrics_at_the_largest_burn_in(marks, params, past_end):
    n = len(marks)
    times = np.cumsum(np.linspace(0.3, 1.7, n))
    t_end = float(times[-1]) + past_end
    s = EventStream(times, marks, t_end, params)
    burn_in = math.nextafter(1.0, 0.0)
    for policy, q0 in (("admit-all", 0), ("threshold:x=1", 2)):
        m = _assert_metrics_match_oracle(s, policy, q0, t_end, burn_in)
        assert m.n_events == n and m.n_burned == n - 1


@pytest.mark.parametrize("burn_in", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("policy", ["admit-all", "threshold:x=3", "threshold:auto",
                                    "windowed-drain"])
def test_integer_reductions_give_the_float_formulas(policy, burn_in):
    # the metrics count and sum the int path exactly; they must give the
    # floats of the float64 mean and sum they replace, to the last bit
    params = ModelParams(0.9375, 0.5, window=4.0)
    for seed, q0 in ((1, 0), (2, 7)):
        s = generate_stream(params, 3000.0 + params.window, seed=seed)
        traj, trace, m = run_simulation(s, policy, q0=q0, t_end=3000.0, burn_in=burn_in)
        pre, h = traj.pre_event_queue, trace.decisions
        n_burn = int(burn_in * pre.size)
        n_used = pre.size - n_burn
        assert m.mean_queue_event.hex() == float(pre[n_burn:].mean()).hex()
        want = params.total_rate * float(h[n_burn:].sum()) / n_used
        assert m.diversion_rate.hex() == want.hex()
        assert type(trace.count()) is int and trace.count() == int(h.sum())
        assert type(m.wasted_count) is int


def test_event_mean_of_a_path_past_2_to_the_53():
    # the int64 sum of this path would wrap; the mean stays the float64 one
    s = hand_stream([(1.0, 1), (2.0, 1), (3.0, -1)], 4.0)
    top = np.iinfo(np.int64).max
    traj, _, m = run_simulation(s, "threshold:x=3", q0=top - 3, burn_in=0.0)
    assert m.mean_queue_event == float(traj.pre_event_queue.mean()) > 2.0**62


@pytest.mark.parametrize("policy, q0", [
    ("admit-all", 3),
    ("threshold:x=4", 1),
    ("threshold:x=4", 4),
    ("threshold:x=2", 7),  # q0 > x, reaches x
    ("threshold:x=0", 400),  # q0 > x, never reaches x
    ("windowed-drain", 2),
    (_Delegating(AdmitAllPolicy()), 2),
])
def test_pre_and_post_are_one_int64_path(policy, q0):
    s = generate_stream(PARAMS, 300.0 + PARAMS.window, seed=5)
    traj, _, _ = run_simulation(s, policy, q0=q0, t_end=300.0)
    pre, post = traj.pre_event_queue, traj.post_event_queue
    assert pre.dtype == post.dtype == np.int64
    assert pre.size == post.size == count_events(s, 300.0)
    assert pre[0] == q0
    assert np.array_equal(pre[1:], post[:-1])
    assert np.shares_memory(pre, post)


def test_threshold_run_memory_per_event():
    # stream (8 + 1 B/event; the kernel never reads prefix) plus one int64
    # path buffer and the transient scan and metric arrays, ~25.5 B/event;
    # fresh arrays per step took ~71, an eager prefix and an int16 scan ~34
    params = ModelParams(1 - 2**-5, 0.5)
    run_simulation(generate_stream(params, 100.0, seed=0), "threshold:auto")  # warm caches
    for horizon in (1e5, 1e6):
        tracemalloc.start()
        try:
            s = generate_stream(params, horizon, seed=3)
            run_simulation(s, "threshold:auto")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(s) <= 28.0, horizon
