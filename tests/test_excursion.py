import dataclasses
import math

import numpy as np
import pytest

from qadmit import excursion, sim
from qadmit.errors import ConfigurationError, EstimationError, OutOfRangeError
from qadmit.excursion import (
    ExcursionConfig,
    default_warmup_time,
    diversion_idling_diagnostic,
    e1_zeta_sweep,
    e5_rate_fit,
    estimate_event_probs,
    evaluate_events,
    reference_queue,
    wilson_halfwidth,
)
from qadmit.stream import EventStream, ModelParams, generate_stream, replication_seed


def make_config(lam=0.9, p=0.5, window=2.0, k=2.0, epsilon=0.3, zeta=1.0, phi=40.0, q_ref=0.1):
    return ExcursionConfig(
        params=ModelParams(lam, p, window), k=k, epsilon=epsilon, zeta=zeta, phi=phi, q_ref=q_ref
    )


def test_marker_arithmetic():
    cfg = make_config(window=3.0, k=5.0)
    u1, u2, u3 = cfg.markers
    assert u1 == cfg.window
    assert u2 - u1 == cfg.buffer_len == 15.0
    assert u3 - u2 == u1


def test_config_validation():
    with pytest.raises(ConfigurationError):
        make_config(epsilon=0.5, zeta=0.4)  # epsilon >= zeta
    with pytest.raises(ConfigurationError):
        make_config(epsilon=0.45)  # epsilon >= drift = 0.4
    with pytest.raises(ConfigurationError):
        make_config(k=0.0)
    with pytest.raises(ConfigurationError):
        make_config(phi=-1.0)
    with pytest.raises(ConfigurationError):
        make_config(window=0.0)  # every stretch of the base path would be empty


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["k", "phi", "zeta", "q_ref"])
def test_config_rejects_non_finite_geometry(field, value):
    # a NaN q_ref would make the barrier NaN and P(e5) silently 0
    with pytest.raises(ConfigurationError, match="finite"):
        dataclasses.replace(make_config(), **{field: value})


def test_barrier_formula():
    cfg = make_config(window=2.0, k=2.0, epsilon=0.3, zeta=1.0, q_ref=0.1)
    # 6*0.1 + (0.4 - 0.3)*4 + 1.0 + 4*2
    assert cfg.barrier == pytest.approx(0.6 + 0.4 + 1.0 + 8.0)


def test_insufficient_horizon_rejected():
    cfg = make_config()
    s = generate_stream(cfg.params, cfg.horizon_needed / 2, seed=1)
    with pytest.raises(ConfigurationError):
        evaluate_events(s, cfg)


def test_e1_flat_path_reduces_to_drift_check():
    # no events in (U1, U2]: e1 holds iff drift*B <= eps*B + zeta
    cfg = make_config(window=1.0, k=2.0, epsilon=0.3, zeta=1.0, phi=1.0)
    horizon = cfg.horizon_needed
    s = EventStream.from_pairs([(0.5, 1), (3.9, -1)], horizon)  # (U1,U2] = (1,3] empty
    ev = evaluate_events(s, cfg)
    drift, b = cfg.params.drift, cfg.buffer_len
    assert ev.e1 == (drift * b <= cfg.epsilon * b + cfg.zeta) is True
    tight = dataclasses.replace(cfg, epsilon=0.05, zeta=0.051)
    assert evaluate_events(s, tight).e1 is (drift * b <= 0.05 * b + 0.051) is False


def test_no_events_after_u3_means_no_hit():
    cfg = make_config(window=1.0, k=1.0, phi=2.0)
    s = EventStream.from_pairs([(0.2, 1), (1.5, 1)], cfg.horizon_needed)
    ev = evaluate_events(s, cfg)
    assert ev.z_value is None
    assert ev.e5 is False


def test_first_passage_hand_trace():
    # six tokens after U3; barrier 2.2 is crossed at the third (walk -3)
    cfg = make_config(window=0.5, k=2.0, epsilon=0.3, zeta=0.5, phi=20.0, q_ref=0.0)
    # barrier = 0 + 0.1*1.0 + 0.5 + 2.0 = 2.6 -> need walk < -2.6 -> third token
    u3 = cfg.markers[2]
    pairs = [(u3 + 0.5 + 0.3 * i, -1) for i in range(6)]
    s = EventStream.from_pairs(pairs, cfg.horizon_needed)
    ev = evaluate_events(s, cfg)
    z = ev.z_value
    assert z == pytest.approx(pairs[2][0] - u3)
    assert ev.e5 is (z <= cfg.deadline) is True


def test_e1_monotone_in_zeta_pathwise():
    cfg = make_config()
    for i in range(40):
        s = generate_stream(cfg.params, cfg.horizon_needed, replication_seed(3, i))
        req = evaluate_events(s, cfg).slack
        for zeta in (0.31, 0.8, 2.0, 5.0):
            ev = evaluate_events(s, dataclasses.replace(cfg, zeta=zeta))
            assert ev.e1 == (req <= zeta)


def test_e5_determinism_from_dumped_stream(tmp_path):
    import csv

    cfg = make_config(window=1.0, k=1.0, zeta=0.5, epsilon=0.3, phi=30.0)
    s = generate_stream(cfg.params, cfg.horizon_needed, seed=8)
    from qadmit.stream import stream_to_csv

    path = tmp_path / "dump.csv"
    stream_to_csv(s, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    rebuilt = EventStream(
        np.array([float(r["time"]) for r in rows]),
        np.array([int(r["mark"]) for r in rows]),
        s.horizon,
    )
    assert evaluate_events(rebuilt, cfg).z_value == evaluate_events(s, cfg).z_value


def test_wilson_halfwidth_monotone_and_sane():
    assert wilson_halfwidth(0, 0) != wilson_halfwidth(0, 0)  # nan for empty
    assert 0 < wilson_halfwidth(5, 100) < 1
    assert wilson_halfwidth(50, 100) > wilson_halfwidth(50, 10000)
    assert wilson_halfwidth(0, 100) > 0  # never degenerate at the boundary


def test_estimate_event_probs_minimum_samples():
    with pytest.raises(ConfigurationError):
        estimate_event_probs(make_config(), 50, 0)


def test_estimate_event_probs_report_shape():
    report, rows = estimate_event_probs(make_config(), 300, 5)
    assert rows.shape == (300, 4)
    assert set(report.estimates) == {"e1", "e3", "e4", "e5"}
    for est in report.estimates.values():
        assert 0.0 <= est.mean <= 1.0
        assert est.hits == round(est.mean * 300)
    assert len(report.correlations) == 6
    assert all(-1.0 <= v <= 1.0 for v in report.correlations.values())
    # streams end at the deadline, so any barrier crossing satisfies it and
    # the stopping-time summary counts exactly the e5 hits
    if report.estimates["e5"].hits:
        assert report.z_given_hit is not None
        assert report.z_given_hit.n == report.estimates["e5"].hits
        assert 0.0 < report.z_given_hit.mean <= make_config().deadline


def test_e3_e4_symmetry():
    # the same functional on disjoint, equal-length stretches of a
    # stationary stream: estimates agree within a joint interval
    report, _ = estimate_event_probs(make_config(window=3.0, k=1.5), 4000, 6)
    e3, e4 = report.estimates["e3"], report.estimates["e4"]
    assert abs(e3.mean - e4.mean) <= 4.0 * math.hypot(e3.se, e4.se)


def test_e1_zeta_sweep_monotone_on_shared_draws():
    cfg = make_config(window=2.0, k=2.0, epsilon=0.3, zeta=1.0)
    sweep = e1_zeta_sweep(cfg, [0.4, 1.0, 3.0, 8.0], 400, 7)
    means = [m for _, m, _ in sweep]
    assert means == sorted(means)
    with pytest.raises(ConfigurationError):
        e1_zeta_sweep(cfg, [0.1, 1.0], 400, 7)  # zeta below epsilon


@pytest.mark.parametrize("zetas, n_samples", [
    ([], 50), ([0.4, 1.0], 0), ([0.4], -1),
    ([math.nan], 50), ([1.0, math.nan, 0.1], 50),  # NaN must not hide a zeta below epsilon
])
def test_e1_zeta_sweep_rejects_bad_input(zetas, n_samples):
    with pytest.raises(ConfigurationError):
        e1_zeta_sweep(make_config(), zetas, n_samples, 7)


@pytest.mark.parametrize("n_samples", [0, -3])
def test_e5_rate_fit_needs_samples(n_samples):
    with pytest.raises(ConfigurationError):
        e5_rate_fit(make_config(), [0.5, 1.0, 1.5], n_samples, 9)


def test_e5_rate_fit_drops_and_errors():
    cfg = make_config(window=1.0, k=1.0, epsilon=0.35, zeta=0.5, phi=30.0, q_ref=0.1)
    # gigantic reference queue -> unreachable barrier -> all windows dropped
    hopeless = dataclasses.replace(cfg, q_ref=500.0)
    with pytest.raises(EstimationError):
        e5_rate_fit(hopeless, [0.5, 1.0, 1.5], 120, 9)


def test_e5_rate_fit_positive_slope():
    cfg = make_config(window=1.0, k=1.0, epsilon=0.35, zeta=0.5, phi=40.0, q_ref=0.1)
    fit = e5_rate_fit(cfg, [0.5, 1.0, 1.5], 1200, 10)
    assert fit.slope > 0
    assert not fit.dropped
    assert all(h >= 1 for _, _, h in fit.points)


def test_e5_barrier_monotone_in_q_ref():
    # common random numbers: a higher reference queue never flips a miss
    # into a hit, and a barrier jump of >= 1 strictly thins the hits
    base = make_config(window=1.0, k=1.0, epsilon=0.35, zeta=0.5, phi=40.0, q_ref=0.5)
    doubled = dataclasses.replace(base, q_ref=1.0)
    hits_base = hits_doubled = 0
    for i in range(800):
        s = generate_stream(base.params, base.horizon_needed, replication_seed(11, i))
        e5_base = evaluate_events(s, base).e5
        e5_doubled = evaluate_events(s, doubled).e5
        assert not (e5_doubled and not e5_base)
        hits_base += e5_base
        hits_doubled += e5_doubled
    assert hits_doubled < hits_base


# the integer-barrier geometry of test_excursion_laws: barrier exactly 2.0 at q_ref = 0
INTEGER_BARRIER = ExcursionConfig(params=ModelParams(0.875, 0.5, 0.25), k=8.0, epsilon=0.125,
                                  zeta=0.5, phi=40.0, q_ref=0.0)


def _with_barrier(config, target):
    """``config`` with its q_ref moved until the barrier is exactly ``target``."""
    q_ref = (target - config.barrier) / 6.0
    for _ in range(64):
        moved = dataclasses.replace(config, q_ref=q_ref)
        if moved.barrier == target:
            return moved
        q_ref = math.nextafter(q_ref, math.inf if moved.barrier < target else -math.inf)
    raise AssertionError(f"no q_ref gives the barrier {target!r}")


def _float_barrier_rule(stream, config):
    """(e5, z) by the float comparison walk < -barrier, the rule as the paper states it."""
    u3 = config.markers[2]
    n3 = int(np.searchsorted(stream.times, u3, side="right"))
    walk = stream.prefix[n3 + 1 :] - stream.prefix[n3]
    below = np.flatnonzero(walk < -config.barrier)
    z = float(stream.times[n3 + below[0]]) - u3 if below.size else None
    return z is not None and z <= config.deadline, z, int(walk.min(initial=0))


@pytest.mark.parametrize("barrier", [2.0, math.nextafter(2.0, math.inf),
                                     math.nextafter(3.0, 0.0)])
def test_e5_integer_barrier_matches_the_float_rule(barrier):
    # e5 compares the integer walk with -floor(barrier); the walk lies below
    # -barrier exactly when it lies below -floor(barrier)
    config = _with_barrier(INTEGER_BARRIER, barrier)
    assert config.barrier_steps == math.floor(barrier)
    lows = set()
    hits = 0
    for i in range(400):
        s = generate_stream(config.params, config.horizon_needed, replication_seed(29, i))
        ev = evaluate_events(s, config)
        e5, z, low = _float_barrier_rule(s, config)
        assert (ev.e5, ev.z_value) == (e5, z), (i, low)
        lows.add(low)
        hits += e5
    # walks that touch -floor(barrier) without passing it, and walks that pass it
    assert {-config.barrier_steps, -config.barrier_steps - 1} <= lows
    assert 0 < hits < 400


@pytest.mark.parametrize("q_ref", [1e300, 1e308])
def test_e5_barrier_past_int64_is_never_crossed(q_ref):
    # floor(barrier) is clamped to 2**62, which no walk of a stream reaches;
    # at q_ref = 1e308 the barrier itself is inf
    config = dataclasses.replace(INTEGER_BARRIER, q_ref=q_ref)
    assert config.barrier > 2.0**63 and config.barrier_steps == 2**62
    for i in range(50):
        s = generate_stream(config.params, config.horizon_needed, replication_seed(29, i))
        ev = evaluate_events(s, config)
        assert (ev.e5, ev.z_value) == (False, None) == _float_barrier_rule(s, config)[:2]


def test_default_warmup_rule():
    cfg = make_config(window=2000.0, k=1.0)
    assert default_warmup_time(cfg) == pytest.approx(100.0 * 2000.0)
    cfg_small = make_config(window=1.0, k=1.0)
    assert default_warmup_time(cfg_small) == pytest.approx(100_000 / 1.4)


def test_reference_queue_sources():
    params = ModelParams(0.9, 0.5, 2.0)
    q_auto, src = reference_queue(params, "threshold:auto")
    assert src == "bd-oracle"
    assert q_auto == pytest.approx(8.28 / 6.04, abs=1e-9)
    q_pilot, src2 = reference_queue(params, "windowed-drain", seed=1, pilot_horizon=5000.0)
    assert src2 == "pilot-run"
    assert 0.0 < q_pilot < 50.0
    # admit-all has no stationary queue in overload, so no pilot run can stand in for one
    with pytest.raises(ConfigurationError, match="admit-all"):
        reference_queue(params, "admit-all", seed=1, pilot_horizon=5000.0)


def _first_draws(*key):
    return np.random.default_rng(replication_seed(*key)).random(4).tolist()


def test_seed_keys_equal_up_to_four_words_of_trailing_zeros():
    # SeedSequence pads its entropy to four words with zeros, so a key that
    # only appends zeros within those four words draws the same numbers
    draws = _first_draws(5)
    assert all(_first_draws(5, *[0] * n) == draws for n in (1, 2, 3))
    assert _first_draws(5, 0, 0, 0, 0) != draws


@pytest.mark.parametrize("origin", [-1.0, -1e-300, float("nan")])
def test_evaluate_events_rejects_an_origin_before_zero(origin):
    cfg = make_config()
    s = generate_stream(cfg.params, cfg.horizon_needed + 1.0, 4)
    with pytest.raises(OutOfRangeError):
        evaluate_events(s, cfg, origin)


def test_pilot_run_key_is_no_sample_key(monkeypatch):
    calls = []  # (seed, Generator state, stream) of every stream the excursion module draws
    draw = excursion.generate_stream

    def recording(params, horizon, seed):
        # a sample's Generator is re-seeded in place for the next sample, so
        # its state is read when the stream is drawn
        state = np.random.default_rng(seed).bit_generator.state
        calls.append((seed, state, draw(params, horizon, seed)))
        return calls[-1][2]

    monkeypatch.setattr(excursion, "generate_stream", recording)
    reference_queue(ModelParams(0.9, 0.5, 2.0), "windowed-drain", seed=3, pilot_horizon=500.0)
    (pilot_key, _, pilot), = calls
    calls.clear()
    estimate_event_probs(make_config(), n_samples=100, seed=3)
    diversion_idling_diagnostic(make_config(), "windowed-drain", n_samples=2, seed=3,
                                warmup_time=50.0)
    assert len(calls) == 102
    sample_states = [state for _, state, _ in calls]
    assert np.random.PCG64(pilot_key).state not in sample_states
    # so the pilot stream shares no epochs with sample 0 of either run
    for i in (0, 100):
        assert not np.isin(pilot.times[:10], calls[i][2].times).any()


def test_diagnostic_admit_all_has_no_diversions():
    cfg = make_config(window=1.5, k=2.0, epsilon=0.3, zeta=1.0, phi=3.0, q_ref=2.0)
    report, rows = diversion_idling_diagnostic(
        cfg, "admit-all", n_samples=60, seed=13, warmup_time=200.0
    )
    assert report.n_samples == 60
    if report.n_conditional:
        assert report.y_over_b.mean == 0.0
    assert all(r["Y"] == 0 for r in rows)


@pytest.mark.parametrize("n_samples", [0, -1])
def test_diagnostic_needs_samples(n_samples):
    with pytest.raises(ConfigurationError):
        diversion_idling_diagnostic(make_config(), "threshold:auto", n_samples, 5,
                                    warmup_time=10.0)


def test_diagnostic_threshold_e2_markov_bound():
    params = ModelParams(0.9, 0.5, 1.0)
    q_ref, src = reference_queue(params, "threshold:auto")
    assert src == "bd-oracle"
    cfg = ExcursionConfig(params=params, k=2.0, epsilon=0.3, zeta=2.0, phi=2.0, q_ref=q_ref)
    report, _ = diversion_idling_diagnostic(
        cfg, "threshold:auto", n_samples=260, seed=14, warmup_time=300.0
    )
    # the chain's stationary law satisfies P(Q <= 6 E[Q]) >= 5/6 exactly
    assert report.p_e2.mean >= 5.0 / 6.0 - 4.0 * report.p_e2.se
    assert report.n_conditional >= 50
    assert not report.low_conditional
    assert 0.0 <= report.low_at_origin.mean <= 1.0
    assert report.v_last_low.mean <= cfg.buffer_len


def test_diagnostic_windowed_drain_window_controls_idling():
    # the diversion/idling coupling, measured: a myopic certification
    # horizon lets diverted work turn into wasted tokens, a long one
    # certifies the waste away (diversion rates themselves are pinned near
    # drift + waste by flow conservation for any stable feasible policy)
    lam, p = 0.95, 0.5
    wasted = {}
    for w_mult in (0.5, 10.0):
        window = w_mult * math.log(1.0 / (1.0 - lam))
        params = ModelParams(lam, p, window)
        cfg = ExcursionConfig(
            params=params, k=2.0, epsilon=0.1, zeta=2.0, phi=1.0, q_ref=2.0
        )
        _, rows = diversion_idling_diagnostic(
            cfg, "windowed-drain", n_samples=120, seed=16,
            warmup_time=max(100.0 * window, 3000.0),
        )
        wasted[w_mult] = np.mean([r["J"] for r in rows])
    assert wasted[0.5] > 5.0 * wasted[10.0]
    assert wasted[0.5] > 0.05


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_estimators_draw_and_score_through_module_globals(monkeypatch):
    # wrappers on the module's generate_stream / evaluate_events see every
    # sample, one call each, as the benchmark's tracer relies on when it
    # counts excursion samples and events; sample i draws from the state
    # that replication_seed(21, i) seeds
    cfg = make_config()
    want, _ = estimate_event_probs(cfg, 150, 21)
    states = []
    draw = excursion.generate_stream

    def recording(params, horizon, seed):
        states.append(seed.bit_generator.state)
        return draw(params, horizon, seed)

    monkeypatch.setattr(excursion, "generate_stream", recording)
    scored = _count_calls(monkeypatch, excursion, "evaluate_events")
    report, _ = estimate_event_probs(cfg, 150, 21)
    assert (len(states), len(scored)) == (150, 150)
    assert states == [np.random.PCG64(replication_seed(21, i)).state for i in range(150)]
    assert report == want


def test_diagnostic_builds_its_policy_once(monkeypatch):
    cfg = make_config(window=1.0, k=1.0, epsilon=0.3, zeta=1.0, phi=1.5, q_ref=1.5)
    built = _count_calls(monkeypatch, excursion, "make_policy")
    per_sample = _count_calls(monkeypatch, sim, "make_policy")
    report, _ = diversion_idling_diagnostic(cfg, "threshold:auto", n_samples=5, seed=15,
                                            warmup_time=50.0)
    assert report.n_samples == 5
    assert (len(built), len(per_sample)) == (1, 0)
