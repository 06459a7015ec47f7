"""The Monte Carlo event estimates against the exact laws of a memoryless stream.

e3 and e4 ask the net input over a W-long stretch, Poisson(lambda W) arrivals
less Poisson((1 - p) W) tokens, to stay at most 2W: a finite sum of Poisson
pmfs.  e5 asks the walk after U3 to fall strictly below -barrier, that is to
reach -(floor(barrier) + 1), within the phi W the stream runs past U3.  Given
its N ~ Poisson((lambda + 1 - p) phi W) events, that walk is a +-1 walk with
up-probability lambda / (lambda + 1 - p), and one dynamic-programming pass
over its position gives the chance of reaching the level within n steps for
every n at once.  These laws check what no recorded digest does: that the
marks are drawn at the model's arrival fraction and that the scorer reads
the barrier as the paper states it.  e1's affine envelope in continuous
time has no such law and stays out.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from qadmit.excursion import ExcursionConfig, e5_rate_fit, estimate_event_probs
from qadmit.stream import ModelParams


def _poisson_pmf(mean: float, kmax: int) -> np.ndarray:
    """P(N = k) for k = 0, ..., kmax, N ~ Poisson(mean)."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(kmax + 1)])
    return np.exp(np.arange(kmax + 1) * math.log(mean) - mean - log_fact)


def _poisson_reach(mean: float) -> int:
    """A count past which the Poisson(mean) pmf sums to well below float precision."""
    return int(mean + 12.0 * math.sqrt(mean) + 30.0)


def buffer_law(params: ModelParams, w: float) -> float:
    """P(A - D <= 2w) for independent A ~ Poisson(lambda w), D ~ Poisson((1 - p) w)."""
    m = math.floor(2.0 * w)  # the net input is an integer
    a_mean, d_mean = params.arrival_rate * w, params.service_rate * w
    pd = _poisson_pmf(d_mean, _poisson_reach(d_mean))
    cdf_a = np.cumsum(_poisson_pmf(a_mean, _poisson_reach(a_mean) + m + pd.size))
    return float((pd * cdf_a[m + np.arange(pd.size)]).sum())


def reach_by_steps(up: float, level: int, steps: int) -> np.ndarray:
    """P(a +-1 walk from 0 with up-probability `up` has been at -level by step n), n = 0..steps."""
    dist = np.zeros(level + steps + 1)  # dist[j]: at position j - level, not yet absorbed
    dist[level] = 1.0
    reached = np.zeros(steps + 1)
    for n in range(1, steps + 1):
        moved = np.zeros_like(dist)
        moved[1:] = up * dist[:-1]
        moved[:-1] += (1.0 - up) * dist[1:]
        reached[n] = reached[n - 1] + moved[0]
        moved[0] = 0.0
        dist = moved
    return reached


def crash_law(config: ExcursionConfig) -> float:
    """P(e5): the post-U3 walk reaches -(floor(barrier) + 1) within its Poisson count of events."""
    params = config.params
    mean = params.total_rate * config.deadline
    steps = _poisson_reach(mean)
    reached = reach_by_steps(params.arrival_fraction, math.floor(config.barrier) + 1, steps)
    return float((_poisson_pmf(mean, steps) * reached).sum())


def test_reach_by_steps_matches_enumeration():
    up, level, steps = 0.6, 2, 10
    want = np.zeros(steps + 1)
    for marks in itertools.product((1, -1), repeat=steps):
        walk = np.cumsum(marks)
        hit = np.flatnonzero(walk <= -level)
        if hit.size:
            n_up = marks.count(1)
            want[hit[0] + 1 :] += up**n_up * (1.0 - up) ** (steps - n_up)
    assert np.allclose(reach_by_steps(up, level, steps), want, rtol=1e-12, atol=0.0)


def test_buffer_law_matches_direct_double_sum():
    params = ModelParams(0.9, 0.5, 1.5)
    pa, pd = _poisson_pmf(0.9 * 1.5, 60), _poisson_pmf(0.5 * 1.5, 60)
    want = sum(pa[a] * pd[d] for a in range(61) for d in range(61) if a - d <= 3)
    assert buffer_law(params, 1.5) == pytest.approx(want, rel=1e-12)


# (config, samples, seed); every law below lies in (0.01, 0.99)
GEOMETRIES = {
    # barrier (0.375 - 0.125) * 2 + 0.5 + 4 * 0.25 = 2.0 exactly, so falling
    # strictly below it (-3) and reaching it (-2) give P(e5) 0.14 and 0.27
    "integer-barrier": (ExcursionConfig(params=ModelParams(0.875, 0.5, 0.25), k=8.0,
                                        epsilon=0.125, zeta=0.5, phi=40.0, q_ref=0.0), 4000, 11),
    # marks near a fair coin (up-probability 0.53) and a barrier of 12 over
    # ~530 events: P(e5) = 0.20 moves by ~0.04 per 1% of the arrival fraction
    "near-fair-walk": (ExcursionConfig(params=ModelParams(0.5625, 0.5, 0.5), k=2.0,
                                       epsilon=0.03125, zeta=0.96875, phi=1000.0, q_ref=1.5),
                       4000, 12),
    # the e5 rate fit's geometry (acceptance criterion 06) at its shortest window
    "criterion-06": (ExcursionConfig(params=ModelParams(0.9, 0.5, 0.5), k=1.0, epsilon=0.35,
                                     zeta=0.5, phi=60.0, q_ref=0.1), 4000, 13),
}


@pytest.mark.parametrize("name", GEOMETRIES)
def test_event_estimates_within_four_se_of_exact_laws(name):
    config, n, seed = GEOMETRIES[name]
    report, _ = estimate_event_probs(config, n, seed)
    buffer = buffer_law(config.params, config.window)
    for event, exact in (("e3", buffer), ("e4", buffer), ("e5", crash_law(config))):
        assert 0.01 < exact < 0.99, (event, exact)
        est = report.estimates[event]
        assert abs(est.mean - exact) <= 4.0 * est.se, (event, est.mean, est.se, exact)


def test_criterion_06_slope_within_four_se_of_the_exact_law():
    # acceptance 06's own fit (its geometry, windows, samples and seed) against
    # the least-squares slope of -ln P(e5) through the exact laws (2.181)
    config = ExcursionConfig(params=ModelParams(0.9, 0.5, 1.0), k=1.0, epsilon=0.35, zeta=0.5,
                             phi=60.0, q_ref=0.1)
    windows, n = np.array([0.5, 0.9, 1.3, 1.7, 2.1]), 8000
    exact = -np.log([crash_law(replace(config, params=replace(config.params, window=w)))
                     for w in windows])
    weights = (windows - windows.mean()) / ((windows - windows.mean()) ** 2).sum()
    fit = e5_rate_fit(config, windows, n, seed=6000)
    assert not fit.dropped
    # delta method: -ln of a hit fraction P has variance ~(1 - P) / (n P)
    hit_fractions = np.array([point[1] for point in fit.points])
    se = math.sqrt((weights**2 * (1.0 - hit_fractions) / (n * hit_fractions)).sum())
    assert abs(fit.slope - weights @ exact) <= 4.0 * se, (fit.slope, weights @ exact, se)
