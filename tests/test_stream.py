import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadmit.errors import ConfigurationError, OutOfRangeError
from qadmit.stream import (
    SEED_BLOCK,
    EventStream,
    ModelParams,
    count_events,
    generate_stream,
    log_scale,
    net_input,
    replication_generators,
    replication_seed,
    running_extreme,
    stream_to_csv,
)

PARAMS = ModelParams(arrival_rate=0.9, divert_budget=0.5, window=8.0)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        ModelParams(arrival_rate=0.4, divert_budget=0.5)  # not overloaded
    with pytest.raises(ConfigurationError):
        ModelParams(arrival_rate=1.0, divert_budget=0.5)
    with pytest.raises(ConfigurationError):
        ModelParams(arrival_rate=0.9, divert_budget=1.2)
    with pytest.raises(ConfigurationError):
        ModelParams(arrival_rate=0.9, divert_budget=0.5, window=math.inf)
    p = ModelParams(0.9, 0.5)
    assert p.drift == pytest.approx(0.4)
    assert p.total_rate == pytest.approx(1.4)


# each derived rate of ModelParams as the expression it is computed by
RATE_RULES = {
    "service_rate": lambda lam, p: 1.0 - p,
    "total_rate": lambda lam, p: lam + (1.0 - p),
    "drift": lambda lam, p: lam - (1.0 - p),
    "arrival_fraction": lambda lam, p: lam / (lam + (1.0 - p)),
}


def test_cached_rates_equal_their_expressions_bit_for_bit():
    # several parameter sets read in turn: a value kept from another
    # object would show here
    for lam, p in [(0.9, 0.5), (0.875, 0.5), (0.3, 0.71), (math.nextafter(1.0, 0.0), 1e-9),
                   (math.nextafter(0.9, 1.0), 0.1)]:
        params = ModelParams(lam, p, window=2.0)
        for _ in range(2):  # the first read computes, the second reads what was kept
            for name, rule in RATE_RULES.items():
                assert getattr(params, name).hex() == rule(lam, p).hex(), (lam, p, name)


def test_cached_rates_leave_the_dataclass_protocol_alone():
    read, fresh = ModelParams(0.9, 0.5, window=2.0), ModelParams(0.9, 0.5, window=2.0)
    for name in RATE_RULES:
        getattr(read, name)
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert repr(fresh) == "ModelParams(arrival_rate=0.9, divert_budget=0.5, window=2.0)"
    assert dataclasses.asdict(read) == {"arrival_rate": 0.9, "divert_budget": 0.5, "window": 2.0}
    back = pickle.loads(pickle.dumps(read))
    assert back == read and hash(back) == hash(read)
    assert all(getattr(back, name) == getattr(fresh, name) for name in RATE_RULES)
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.drift = 0.0


def test_replaced_params_compute_their_rates_afresh():
    params = ModelParams(0.9, 0.5, window=2.0)
    for name in RATE_RULES:
        getattr(params, name)
    widened = dataclasses.replace(params, window=5.0)
    assert not set(RATE_RULES) & set(vars(widened))  # nothing carried over before a read
    busier = dataclasses.replace(params, arrival_rate=0.95)
    for name, rule in RATE_RULES.items():
        assert getattr(widened, name).hex() == rule(0.9, 0.5).hex(), name
        assert getattr(busier, name).hex() == rule(0.95, 0.5).hex(), name


@pytest.mark.parametrize("rate", [1.0, 1.2, -0.1, math.nan])
def test_log_scale_rejects_a_rate_outside_0_1(rate):
    # ln(1/(1 - rate)) would divide by zero at 1 and leave the math domain past it
    with pytest.raises(ConfigurationError, match="rate in"):
        log_scale(rate)


def test_log_scale_values():
    assert log_scale(0.0) == 0.0
    assert log_scale(0.875) == math.log(8.0)


def test_stream_invariants_enforced():
    with pytest.raises(ValueError):
        EventStream(np.array([1.0, 1.0]), np.array([1, -1]), 5.0)
    with pytest.raises(ValueError):
        EventStream(np.array([1.0, 2.0]), np.array([1, 2]), 5.0)
    with pytest.raises(ValueError):
        EventStream(np.array([1.0, 6.0]), np.array([1, -1]), 5.0)
    with pytest.raises(ValueError):
        EventStream(np.array([0.0]), np.array([1]), 5.0)


@pytest.mark.parametrize("times, marks", [
    ([1.0, 2.0], [1]),  # one mark short
    ([[1.0, 2.0]], [[1, -1]]),  # equal shapes, but 2-d
])
def test_stream_shapes_must_be_equal_and_1d(times, marks):
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        EventStream(np.array(times), np.array(marks), 5.0)


@pytest.mark.parametrize("horizon", [-1.0, float("nan"), float("inf")])
def test_stream_horizon_must_be_finite_and_nonnegative(horizon):
    with pytest.raises(ConfigurationError, match="horizon"):
        EventStream(np.array([], dtype=float), np.array([], dtype=np.int8), horizon)


@pytest.mark.parametrize("form, bad", [
    (form, bad) for form in ("int64", "float", "list") for bad in (255, 257, -255, 0, 2.0)
] + [
    # an int64 array has already truncated a fractional mark
    (form, bad) for form in ("float", "list") for bad in (1.5, -1.9, 0.999)
])
def test_out_of_range_marks_rejected_before_narrowing(form, bad):
    # int8 would wrap 255 to -1 and 257 to 1, and an integer cast truncates
    # 1.5 to 1: the check must see the value as given
    marks = [1, bad, -1]
    if form == "int64":
        marks = np.array(marks, dtype=np.int64)
    elif form == "float":
        marks = np.array(marks, dtype=np.float64)
    with pytest.raises(ValueError, match="marks"):
        EventStream(np.array([1.0, 2.0, 3.0]), marks, 5.0)


@pytest.mark.parametrize("marks", [
    [True, True], [True, False], np.array([True, True]),
    # asarray makes these int64 or float64 and would hide the bool
    [True, 1], (1, True), [-1, np.True_], [1.0, True],
])
def test_boolean_marks_rejected(marks):
    # a bool is no number: [True, True] must not pass as two arrivals
    with pytest.raises(ValueError, match="marks must be"):
        EventStream(np.array([1.0, 2.0]), marks, 3.0)


def test_boolean_mark_among_pairs_rejected():
    with pytest.raises(ValueError, match="marks must be"):
        EventStream.from_pairs([(1.0, 1), (2.0, True)], 3.0)
    assert EventStream.from_pairs([(1.0, 1), (2.0, -1)], 3.0).marks.tolist() == [1, -1]


@pytest.mark.parametrize("marks", [
    [1, -1, -1, 1, 1],
    np.array([1, -1, -1, 1, 1], dtype=np.int64),
    np.array([1.0, -1.0, -1.0, 1.0, 1.0]),
    np.array([1, -1, -1, 1, 1], dtype=np.int8),
])
def test_marks_stored_int8_with_int64_prefix(marks):
    s = EventStream(np.arange(1.0, 6.0), marks, 6.0)
    assert s.marks.dtype == np.int8 and s.marks.tolist() == [1, -1, -1, 1, 1]
    assert s.prefix.dtype == np.int64
    assert s.prefix.tolist() == [0, *np.cumsum(np.asarray(marks, dtype=np.int64)).tolist()]


def test_generated_stream_dtypes_and_prefix():
    s = generate_stream(PARAMS, 2e4, seed=9)
    assert s.times.dtype == np.float64 and s.marks.dtype == np.int8
    assert set(np.unique(s.marks).tolist()) == {-1, 1}
    wide = np.cumsum(s.marks.astype(np.int64))
    assert s.prefix.dtype == np.int64 and s.prefix[0] == 0
    assert np.array_equal(s.prefix[1:], wide)


class _ShortGaps(np.random.Generator):
    """Halves every gap, so the first chunk ends before the horizon."""

    def exponential(self, scale=1.0, size=None):
        return super().exponential(scale, size) * 0.5


def _out_of_place_build(params, horizon, rng):
    # fresh arrays at every step: t_last + cumsum(gaps) per chunk, np.where marks
    rate = params.total_rate
    mean = rate * horizon
    chunk = max(int(mean + 6.0 * math.sqrt(mean) + 16.0), 16)
    chunks, t_last = [], 0.0
    while t_last <= horizon:
        chunks.append(t_last + rng.exponential(scale=1.0 / rate, size=chunk).cumsum())
        t_last = float(chunks[-1][-1])
        chunk = max(chunk // 4, 16)
    times = np.concatenate(chunks)
    times = times[: times.searchsorted(horizon, side="right")]
    return times, np.where(rng.random(times.size) < params.arrival_fraction, 1, -1), len(chunks)


@pytest.mark.parametrize("seed, horizon, short", [
    (0, 0.5, False), (1, 30.0, False), (2, 5e4, False), (3, 1000.0, True),
])
def test_generate_stream_matches_out_of_place_build(seed, horizon, short):
    def rng():
        return _ShortGaps(np.random.PCG64(seed)) if short else np.random.default_rng(seed)

    times, marks, chunks = _out_of_place_build(PARAMS, horizon, rng())
    assert (chunks > 1) == short
    s = generate_stream(PARAMS, horizon, rng())
    assert s.times.tobytes() == times.tobytes()
    assert np.array_equal(s.marks, marks)


@pytest.mark.parametrize("build", [
    lambda: generate_stream(PARAMS, 2e4, seed=9),
    lambda: EventStream(np.arange(1.0, 7.0), [1, 1, -1, -1, -1, 1], 7.0),
], ids=["generated", "hand-built"])
def test_prefix_built_on_first_read_and_kept(build):
    s = build()
    assert s._prefix is None  # neither constructor builds it
    eager = np.concatenate(([0], np.cumsum(s.marks, dtype=np.int64)))
    first = s.prefix
    assert first.dtype == np.int64 and np.array_equal(first, eager)
    assert s.prefix is first


def test_determinism_byte_identical():
    a = generate_stream(PARAMS, 1e4, seed=123)
    b = generate_stream(PARAMS, 1e4, seed=123)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.marks.tobytes() == b.marks.tobytes()
    c = generate_stream(PARAMS, 1e4, seed=124)
    assert a.times.tobytes() != c.times.tobytes()


def test_event_count_within_four_sigma():
    st_ = generate_stream(PARAMS, 1e4, seed=7)
    expected = PARAMS.total_rate * 1e4  # 1.4e4
    sigma = math.sqrt(expected)
    assert abs(len(st_) - expected) <= 4 * sigma


def test_mark_fraction_within_four_sigma():
    st_ = generate_stream(PARAMS, 1e4, seed=7)
    frac = (st_.marks == 1).mean()
    target = 0.9 / 1.4
    sigma = math.sqrt(target * (1 - target) / len(st_))
    assert abs(frac - target) <= 4 * sigma


def test_mean_drift_over_seeds():
    # E[S(0,t)] = drift * t; 10^4 independent replications
    t = 50.0
    vals = np.empty(10_000)
    for i in range(vals.size):
        s = generate_stream(PARAMS, t, replication_seed(99, i))
        vals[i] = s.prefix[-1]
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - PARAMS.drift * t) <= 4 * se


def test_replication_seed_mixing():
    a = generate_stream(PARAMS, 100.0, replication_seed(5, 0))
    b = generate_stream(PARAMS, 100.0, replication_seed(5, 1))
    a2 = generate_stream(PARAMS, 100.0, replication_seed(5, 0))
    assert a.times.tobytes() != b.times.tobytes()
    assert a.times.tobytes() == a2.times.tobytes()
    assert replication_seed(5, 1, 2).entropy != replication_seed(5, 2, 1).entropy


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7])
@pytest.mark.parametrize("first, n", [(0, 25), (75, 25), (SEED_BLOCK - 3, 6), (2**32 - 2, 2)])
def test_replication_generators_match_numpy(master, first, n):
    # (0, n) and (3n, n) are sample ranges e5_rate_fit draws; 2**32 - 1 is the last index;
    # 2**96 + 7 is four entropy words, so the index word is mixed in past the 4-word pool
    got = replication_generators(master, first, n)
    for i, rng in zip(range(first, first + n), got, strict=True):
        want = np.random.default_rng(replication_seed(master, i))
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.exponential(0.5, 200).tobytes() == want.exponential(0.5, 200).tobytes()
        assert rng.random(200).tobytes() == want.random(200).tobytes()


def test_replication_generators_cross_a_hash_block():
    # indices are hashed SEED_BLOCK at a time; the block edge changes nothing
    first, n = 1, SEED_BLOCK + 4
    got = replication_generators(2**64 + 5, first, n)
    for i, rng in zip(range(first, first + n), got, strict=True):
        want = np.random.default_rng(replication_seed(2**64 + 5, i))
        assert rng.bit_generator.state == want.bit_generator.state
        if i > SEED_BLOCK - 4:  # the last rows of the first block and the second block
            assert rng.exponential(1.0, 200).tobytes() == want.exponential(1.0, 200).tobytes()


@pytest.mark.parametrize("master, first, n", [(-1, 0, 3), (0, -1, 3), (0, 2**32 - 2, 3)])
def test_replication_generators_reject_bad_keys(master, first, n):
    # a negative seed, or an index outside one uint32 word
    with pytest.raises(ConfigurationError):
        next(replication_generators(master, first, n))


def test_generated_streams_pass_the_checked_constructor():
    # generate_stream skips EventStream's checks; rebuilding its streams
    # through them must reproduce the same arrays
    for i, rng in enumerate(replication_generators(31, 0, 200)):
        params = ModelParams(0.9, 0.5) if i % 2 else PARAMS
        s = generate_stream(params, 40.0 + i, rng)
        checked = EventStream(s.times, s.marks, s.horizon, s.params)
        assert checked.times.tobytes() == s.times.tobytes()
        assert checked.marks.dtype == s.marks.dtype == np.int8
        assert np.array_equal(checked.marks, s.marks)
        assert np.array_equal(checked.prefix, s.prefix)


class _ZeroFirstGap(np.random.Generator):
    """Draws a zero first gap, which no tie nudging covers."""

    def exponential(self, scale=1.0, size=None):
        gaps = super().exponential(scale, size)
        gaps[0] = 0.0
        return gaps


def test_generated_zero_first_epoch_rejected():
    with pytest.raises(ValueError, match=r"\(0, horizon\]"):
        generate_stream(PARAMS, 100.0, _ZeroFirstGap(np.random.PCG64(3)))


def test_count_events_basics():
    s = EventStream.from_pairs([(1.0, 1), (2.0, 1), (3.0, -1)], horizon=5.0)
    assert count_events(s, 0.0) == 0
    assert count_events(s, 2.5) == 2
    assert count_events(s, 2.0) == 2  # closed on the right
    assert count_events(s, 3.0) == 3
    with pytest.raises(OutOfRangeError):
        count_events(s, 5.5)
    with pytest.raises(OutOfRangeError):
        count_events(s, -0.1)


def test_net_input_examples():
    s = EventStream.from_pairs([(1.0, 1), (2.0, 1), (3.0, -1)], horizon=5.0)
    assert net_input(s, 1.5, 1.5) == 0
    assert net_input(s, 0.0, 2.5) == 2
    assert net_input(s, 0.0, 3.0) == 1  # token at 3.0 included
    with pytest.raises(ValueError):
        net_input(s, 2.0, 1.0)


def test_net_input_counts_marks_exactly():
    s = generate_stream(PARAMS, 500.0, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = sorted(rng.uniform(0, 500.0, size=2))
        na, nb = count_events(s, a), count_events(s, b)
        plus = int((s.marks[na:nb] == 1).sum())
        minus = int((s.marks[na:nb] == -1).sum())
        val = net_input(s, a, b)
        assert val == plus - minus
        assert abs(val) <= nb - na


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 300.0), min_size=3, max_size=3))
def test_net_input_additive(points):
    s = generate_stream(PARAMS, 300.0, seed=11)
    a, b, c = sorted(points)
    assert net_input(s, a, b) + net_input(s, b, c) == net_input(s, a, c)


def test_running_extreme_examples():
    s = EventStream.from_pairs([(1.0, 1), (2.0, -1), (3.0, -1)], horizon=4.0)
    assert running_extreme(s, 3.5, 4.0, "min") == (0, 3.5)  # empty interval
    assert running_extreme(s, 0.0, 3.0, "min") == (-1, 3.0)  # walk path 1,0,-1
    assert running_extreme(s, 0.0, 3.0, "max") == (1, 1.0)
    with pytest.raises(ValueError):
        running_extreme(s, 0.0, 3.0, "sup")


def test_running_extreme_rejects_a_reversed_interval():
    s = EventStream.from_pairs([(1.0, 1), (2.0, -1), (3.0, -1)], horizon=4.0)
    with pytest.raises(ValueError, match="t0 <= t1"):
        running_extreme(s, 3.0, 2.0)


def test_running_extreme_first_epoch_ties():
    s = EventStream.from_pairs([(1.0, 1), (2.0, -1), (3.0, 1), (4.0, -1)], horizon=5.0)
    # walk 1,0,1,0: max 1 first attained at 1.0, min 0 first at 2.0
    assert running_extreme(s, 0.0, 5.0, "max") == (1, 1.0)
    assert running_extreme(s, 0.0, 5.0, "min") == (0, 2.0)


def test_stream_csv_dump(tmp_path):
    s = generate_stream(PARAMS, 50.0, seed=3)
    path = tmp_path / "stream.csv"
    stream_to_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,time,mark"
    assert len(lines) == len(s) + 1
    n, t, mark = lines[1].split(",")
    assert n == "1"
    assert float(t) == s.times[0]
    assert int(mark) == s.marks[0]


def test_generate_stream_bad_args():
    with pytest.raises(ConfigurationError):
        generate_stream(PARAMS, math.inf, seed=0)
    with pytest.raises(ConfigurationError):
        generate_stream(PARAMS, -1.0, seed=0)


def test_tie_nudging_restores_strict_order():
    from qadmit.stream import _nudge_ties

    times = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
    fixed = _nudge_ties(times.copy(), horizon=3.0)
    assert np.all(np.diff(fixed) > 0)
    assert fixed.size == 5
    assert fixed[1] == 2.0 and fixed[2] == np.nextafter(2.0, np.inf)
    # a tie at the horizon edge gets nudged out and dropped
    edge = np.array([1.0, 3.0, 3.0])
    fixed = _nudge_ties(edge.copy(), horizon=3.0)
    assert fixed.tolist() == [1.0, 3.0]
