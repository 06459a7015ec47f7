"""The one event evaluator, the estimators and the diagnostic against oracles.

The oracle scores each stream the way the excursion module did before it
had one evaluator: separate ``count_events`` lookups per marker and
separate slack, first-passage and indicator functions.  The diagnostic's
rows are recounted event by event from a replayed queue.  Every comparison
is exact: indicators, stopping times, sweep triples, e5 points and
diagnostic rows must match bit for bit.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qadmit import excursion
from qadmit.errors import EstimationError
from qadmit.excursion import (
    ExcursionConfig,
    diversion_idling_diagnostic,
    e1_zeta_sweep,
    e5_rate_fit,
    estimate_event_probs,
    evaluate_events,
)
from qadmit.sim import run_simulation
from qadmit.stream import EventStream, ModelParams, count_events, generate_stream, replication_seed

# -- oracle: the per-sample scalar path ----------------------------------------


def oracle_slack(s, config, origin=0.0):
    u1, u2, _ = config.markers
    drift, eps = config.params.drift, config.epsilon
    b = config.buffer_len
    n1 = count_events(s, origin + u1)
    n2 = count_events(s, origin + u2)
    c = s.prefix
    s0 = c[n1]
    worst = abs(0.0 - drift * b) - eps * b
    if n2 > n1:
        u = s.times[n1:n2] - (origin + u1)
        post = c[n1 + 1 : n2 + 1] - s0
        pre = c[n1:n2] - s0
        dev = np.maximum(np.abs(post - drift * u), np.abs(pre - drift * u)) - eps * u
        worst = max(float(dev.max()), abs(float(post[-1]) - drift * b) - eps * b)
    return worst


def oracle_first_passage(s, config, origin=0.0):
    _, _, u3 = config.markers
    n3 = count_events(s, origin + u3)
    walk = s.prefix[n3 + 1 :] - s.prefix[n3]
    hits = walk < -config.barrier
    if not hits.any():
        return None
    return float(s.times[n3 + int(np.argmax(hits))] - (origin + u3))


def oracle_events(s, config, origin=0.0):
    """(e1, e3, e4, e5, z) of one stream."""
    u1, u2, u3 = config.markers
    w = config.params.window
    c = s.prefix
    n0, n1, n2, n3 = (count_events(s, origin + t) for t in (0.0, u1, u2, u3))
    z = oracle_first_passage(s, config, origin)
    return (
        oracle_slack(s, config, origin) <= config.zeta,
        bool((c[n1] - c[n0]) <= 2.0 * w),
        bool((c[n3] - c[n2]) <= 2.0 * w),
        z is not None and z <= config.deadline,
        z,
    )


def oracle_streams(config, seed, indices):
    for i in indices:
        yield generate_stream(config.params, config.horizon_needed, replication_seed(seed, i))


def oracle_estimate(config, n_samples, seed):
    scored = [oracle_events(s, config) for s in oracle_streams(config, seed, range(n_samples))]
    rows = np.array([ev[:4] for ev in scored], dtype=bool).reshape(n_samples, 4)
    return rows, [ev[4] for ev in scored if ev[4] is not None]


def oracle_sweep(config, zetas, n_samples, seed):
    required = np.array([oracle_slack(s, config)
                         for s in oracle_streams(config, seed, range(n_samples))])
    out = []
    for z in sorted(float(z) for z in zetas):
        hits = int((required <= z).sum())
        out.append((z, hits / n_samples, excursion.wilson_halfwidth(hits, n_samples)))
    return out


def oracle_e5_points(config, windows, n_samples, seed):
    points, dropped = [], []
    for j, w in enumerate(sorted(float(w) for w in windows)):
        cfg = dataclasses.replace(config, params=dataclasses.replace(config.params, window=w))
        first = (j + 1) * n_samples
        hits = sum(oracle_events(s, cfg)[3]
                   for s in oracle_streams(cfg, seed, range(first, first + n_samples)))
        if hits:
            points.append((w, hits / n_samples, hits))
        else:
            dropped.append(w)
    return points, dropped


# -- geometries ----------------------------------------------------------------


@st.composite
def geometries(draw):
    p = draw(st.floats(0.2, 0.8))
    lam = draw(st.floats(1.0 - p + 0.05, 0.98))
    drift = lam - (1.0 - p)
    zeta = draw(st.floats(0.05, 3.0))
    epsilon = draw(st.floats(0.01, 0.99)) * min(zeta, drift)
    window = draw(st.floats(0.05, 3.0))
    k = draw(st.floats(0.2, 3.0))
    phi = draw(st.floats(0.5, 30.0))
    q_ref = draw(st.sampled_from([0.0, 0.05]) | st.floats(0.0, 2.0))
    return ExcursionConfig(ModelParams(lam, p, window), k=k, epsilon=epsilon, zeta=zeta,
                           phi=phi, q_ref=q_ref)


FLAT_DRIFT = ExcursionConfig(ModelParams(0.9, 0.5, 0.05), k=0.3, epsilon=0.1, zeta=0.5,
                             phi=30.0, q_ref=0.0)  # (U1, U2] is mostly empty
E5_PRONE = ExcursionConfig(ModelParams(0.9, 0.5, 0.3), k=0.5, epsilon=0.05, zeta=0.1,
                           phi=30.0, q_ref=0.0)  # a shallow barrier: e5 hits at every W


# -- differential tests --------------------------------------------------------


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=geometries(), seed=st.integers(0, 2**31), n_samples=st.integers(1, 40))
@example(config=FLAT_DRIFT, seed=3, n_samples=9)
@example(config=E5_PRONE, seed=3, n_samples=27)
def test_sweep_and_rate_fit_match_oracle(config, seed, n_samples):
    zetas = [config.epsilon * 1.5, config.zeta, 3.0 * config.zeta + 1.0]
    assert e1_zeta_sweep(config, zetas, n_samples, seed) == oracle_sweep(
        config, zetas, n_samples, seed)
    windows = [config.window, 1.5 * config.window, 2.0 * config.window]
    points, dropped = oracle_e5_points(config, windows, n_samples, seed)
    if len(points) < 3:
        with pytest.raises(EstimationError):
            e5_rate_fit(config, windows, n_samples, seed)
    else:
        fit = e5_rate_fit(config, windows, n_samples, seed)
        assert (fit.points, fit.dropped) == (points, dropped)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=geometries(), seed=st.integers(0, 2**31), n_samples=st.integers(100, 260))
@example(config=FLAT_DRIFT, seed=3, n_samples=100)
def test_estimate_event_probs_matches_oracle(config, seed, n_samples):
    report, rows = estimate_event_probs(config, n_samples, seed)
    want_rows, want_z = oracle_estimate(config, n_samples, seed)
    assert rows.dtype == bool
    assert np.array_equal(rows, want_rows)
    # repr: the half-width is nan for a single hit
    assert repr(report.z_given_hit) == repr(excursion._mean_ci(want_z) if want_z else None)


@settings(max_examples=40, deadline=None)
@given(config=geometries(), seed=st.integers(0, 2**31),
       origin=st.sampled_from([0.0, 0.7, 5.0]), on_markers=st.booleans())
def test_scalar_wrappers_match_oracle(config, seed, origin, on_markers):
    s = generate_stream(config.params, origin + config.horizon_needed + 1.0, seed)
    if on_markers:  # an event exactly at each marker counts as before it
        cuts = {origin + t for t in config.markers} - {0.0}
        times = np.union1d(s.times, sorted(cuts))
        marks = np.random.default_rng(seed).choice([1, -1], size=times.size)
        s = EventStream(times, marks, s.horizon)
    ev = evaluate_events(s, config, origin)
    assert (ev.e1, ev.e3, ev.e4, ev.e5, ev.z_value) == oracle_events(s, config, origin)
    assert ev.slack == oracle_slack(s, config, origin)
    assert ev.z_value == oracle_first_passage(s, config, origin)


# -- the diagnostic's per-sample rows ------------------------------------------


def oracle_diagnostic_row(s, decisions, config, origin):
    """One diagnostic row, event by event, from the marks and decisions alone.

    The queue is replayed from the stream's marks and the run's decisions;
    each field is then counted over the events of its own interval.
    """
    times, marks, hs = s.times.tolist(), s.marks.tolist(), decisions.tolist()
    path, wasted = [0], 0  # path[n]: Q after the first n events
    for t, mark, h in zip(times, marks, hs):
        q = path[-1]
        if mark == 1:
            q += 1 - h
        elif q > 0:
            q -= 1
        elif t > origin:
            wasted += 1
        path.append(q)

    def queue_at(t):
        return path[sum(1 for u in times[: len(hs)] if u <= t)]

    u1, u2, _ = config.markers
    a, stop = origin + u1, origin + u1 + config.buffer_len
    inside = [i for i in range(len(hs)) if a < times[i] < stop]
    # segments of the path on [a, stop): start value and end time
    segments = zip([queue_at(a)] + [path[i + 1] for i in inside],
                   [times[i] for i in inside] + [stop])
    low_ends = [end for q, end in segments if q <= 2.0 * config.q_ref]
    q0 = queue_at(origin)
    e1, e3, e4, e5, z = oracle_events(s, config, origin)
    return {"e1": e1, "e2": q0 <= 6.0 * config.q_ref, "e3": e3, "e4": e4, "e5": e5, "z": z,
            "Y": sum(h for t, h in zip(times, hs) if origin + u1 < t <= origin + u2),
            "V": low_ends[-1] - a if low_ends else 0.0, "J": wasted,
            "L0": int(q0 <= 2.0 * config.q_ref), "Q0": q0}


DIAGNOSTIC = ExcursionConfig(ModelParams(0.9, 0.5, 1.0), k=3.0, epsilon=0.3, zeta=1.0, phi=3.0,
                             q_ref=0.5)


@pytest.mark.parametrize("policy", ["threshold:auto", "windowed-drain"])
@pytest.mark.parametrize("seed", [3, 8, 21])
def test_diagnostic_rows_match_oracle(policy, seed):
    warmup, n_samples = 40.0, 12
    _, rows = diversion_idling_diagnostic(DIAGNOSTIC, policy, n_samples, seed, warmup_time=warmup)
    t_end = warmup + DIAGNOSTIC.horizon_needed
    want = []
    for i in range(n_samples):
        s = generate_stream(DIAGNOSTIC.params, t_end + DIAGNOSTIC.window,
                            replication_seed(seed, i))
        _, trace, _ = run_simulation(s, policy, t_end=t_end)
        want.append({"sample": i} | oracle_diagnostic_row(s, trace.decisions, DIAGNOSTIC, warmup))
    assert rows == want
    # the comparison is not vacuous: the counts vary across the samples
    assert all(any(row[key] for row in want) for key in ("Y", "V", "J", "Q0"))
    assert {row["L0"] for row in want} == {0, 1}


# -- bounded memory ------------------------------------------------------------


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CRITERION_05 = ExcursionConfig(ModelParams(0.95, 0.5, 200.0), k=24.0, epsilon=0.1, zeta=40.0,
                               phi=1.0, q_ref=1.0)  # ~7800 events per sample


@pytest.mark.parametrize("run", [
    lambda n: e1_zeta_sweep(CRITERION_05, [5.0, 40.0], n, 1),
    lambda n: estimate_event_probs(CRITERION_05, n, 1),
], ids=["e1_zeta_sweep", "estimate_event_probs"])
def test_sampling_memory_is_bounded_by_one_path_not_n_samples(run):
    small, large = _traced_peak(lambda: run(100)), _traced_peak(lambda: run(300))
    # one (n_samples, chunk) matrix would be ~20 MB at n = 300
    assert large < 4 * 2**20
    assert large < small + 2**18
