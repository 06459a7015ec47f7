"""Simulation-free oracles for the threshold policy and Poisson tails.

The queue under a threshold policy is a birth-death chain truncated at the
threshold, so its stationary law, mean queue, and diversion rate have exact
closed forms, computed from running products of the birth-death ratio
rather than in log space, with the same bits on every CPU.  The law's
geometric form also gives the least feasible threshold in closed form,
which ``policy.min_feasible_threshold`` starts from and settles against the
float law by a short walk, and which validation counts a run's law by.
Those feed the optimal-threshold scaling table, which makes the logarithmic
growth of the best online queue length directly checkable.
The module also provides exact Poisson upper tails for the large-deviation
rate fit; everything here is pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .stream import ModelParams, log_scale


@dataclass(frozen=True)
class BirthDeathSolution:
    """Stationary law of the queue under a fixed diversion threshold.

    ``probs[q]`` is the stationary probability of queue length q; the chain
    is geometric with ratio ``rho = arrival_rate / service_rate`` truncated
    to {0, ..., threshold}.
    """

    threshold: int
    rho: float
    probs: np.ndarray
    mean_queue: float
    diversion_rate: float

    def mass_at_or_below(self, level: float) -> float:
        """Stationary probability of the queue being <= level."""
        top = math.floor(level)
        if top < 0:
            return 0.0
        return float(self.probs[: min(top, self.threshold) + 1].sum())


def bd_stationary(params: ModelParams, x: int) -> BirthDeathSolution:
    """Exact stationary distribution of the threshold-x queue.

    Detailed balance gives weights ``rho**q``.  Scaled by ``rho**-x`` they
    are ``r**(x - q)`` with ``r = 1/rho < 1`` in overload, built as running
    products from 1 at the threshold, so none can overflow.  The weights,
    their sum and the mean use no ``np.exp`` and no BLAS, whose kernels
    differ in the last bit between CPUs.
    """
    if x < 0:
        raise ValueError(f"threshold must be >= 0, got {x}")
    rho = params.arrival_rate / params.service_rate
    steps = np.full(x + 1, params.service_rate / params.arrival_rate)
    steps[0] = 1.0
    w = np.multiply.accumulate(steps)[::-1]  # w[q] = r**(x - q)
    probs = w / w.sum()
    return BirthDeathSolution(
        threshold=x,
        rho=rho,
        probs=probs,
        mean_queue=float((np.arange(x + 1) * probs).sum()),
        diversion_rate=params.arrival_rate * float(probs[x]),
    )


def closed_form_threshold(params: ModelParams) -> int:
    """The least x whose exact diversion rate fits the budget, read off the law.

    With r = (1 - p)/lambda < 1 the rate is lambda (1 - r) / (1 - r**(x+1)),
    which is at most p exactly when r**(x+1) <= (1 - lambda)/p, so
    x = max(ceil(ln((1 - lambda)/p) / ln r) - 1, 0).  Both logarithms are
    taken as log1p of t/p and t/lambda, t = (1 - p) - lambda, so that lambda
    near 1 - p keeps its digits.  ``bd_stationary``'s float sums can move
    the least feasible x a few states off this value.
    """
    t = params.service_rate - params.arrival_rate
    ratio = math.log1p(t / params.divert_budget) / math.log1p(t / params.arrival_rate)
    return max(math.ceil(ratio) - 1, 0)


@dataclass(frozen=True)
class ScalingRow:
    """One arrival rate's entry in the online-scaling table."""

    arrival_rate: float
    x_star: int
    q_opt: float
    log_term: float
    ratio: float
    diversion_rate: float


def online_scaling_table(p: float, lambdas) -> list[ScalingRow]:
    """Optimal-threshold mean queue against its predicted log scaling.

    For each arrival rate the minimal feasible threshold is found, the
    exact mean queue computed, and the ratio to
    ``log_{1/(1-p)} (1/(1-lambda))`` reported; the ratio tending to 1 is
    the heavy-traffic divergence law for online policies.
    """
    from .policy import min_feasible_threshold

    rows = []
    for lam in sorted(lambdas):
        params = ModelParams(arrival_rate=lam, divert_budget=p)
        x_star = min_feasible_threshold(params)
        sol = bd_stationary(params, x_star)
        log_term = log_scale(lam) / log_scale(p)
        rows.append(
            ScalingRow(
                arrival_rate=lam,
                x_star=x_star,
                q_opt=sol.mean_queue,
                log_term=log_term,
                ratio=sol.mean_queue / log_term,
                diversion_rate=sol.diversion_rate,
            )
        )
    return rows


_STIRLING_CUTOFF = 28


def _log_pmf(k: int, mean: float) -> float:
    # For large k the naive k*log(mean) - mean - lgamma(k+1) cancels three
    # huge magnitudes and loses ~1e-12; regrouping against Stirling's
    # expansion keeps every term O(|mean - k|) so the result stays accurate
    # to a few ulp, which the 1e-14 tail contract needs.
    if k < _STIRLING_CUTOFF:
        return k * math.log(mean) - mean - math.lgamma(k + 1)
    d = mean - k
    resid = (
        0.5 * math.log(2.0 * math.pi * k)
        + (1.0 / 12.0) / k
        - (1.0 / 360.0) / k**3
        + (1.0 / 1260.0) / k**5
        - (1.0 / 1680.0) / k**7
    )
    return k * math.log1p(d / k) - d - resid


def poisson_tail(mean: float, threshold: float) -> float:
    """P(D >= threshold) for D Poisson(mean), by stable exact summation.

    The pmf is evaluated in log space and summed outward from the mode:
    below the mode the complement is accumulated, above it the tail terms
    are collected until negligible and fsum'd smallest-first.  Returns 0.0
    when the tail lies below the smallest positive float.
    """
    if mean <= 0.0 or not math.isfinite(mean):
        raise ValueError(f"mean must be positive and finite, got {mean}")
    if threshold <= 0.0:
        return 1.0
    k0 = math.ceil(threshold)
    mode = math.floor(mean)
    if k0 <= mode:
        lower = math.fsum(math.exp(_log_pmf(k, mean)) for k in range(k0))
        return max(1.0 - lower, 0.0)

    log_t = _log_pmf(k0, mean)
    if log_t < -745.0:  # exp underflows; the whole tail is below float range
        return 0.0
    term = math.exp(log_t)
    terms = [term]
    k = k0
    total = term
    while True:
        k += 1
        term *= mean / k
        if term <= total * 1e-20:
            break
        terms.append(term)
        total += term
    return math.fsum(reversed(terms))


@dataclass(frozen=True)
class LdpRateFit:
    """Linear fit of -ln P(D_x >= c1*x) against x."""

    slope: float
    intercept: float
    rel_change: float


def ldp_rate_estimate(c1: float, xs) -> LdpRateFit:
    """Estimate the exponential decay rate of the Poisson upper tail.

    Fits -ln poisson_tail(x, c1*x) linearly in x and reports the relative
    change of the per-x rate between the two largest x values as a
    convergence diagnostic.  At c1 = 1 the tail is central (about 1/2) and
    the slope collapses to zero.
    """
    if c1 < 1.0:
        raise ValueError(f"c1 must be >= 1 for a meaningful tail, got {c1}")
    xs = [float(x) for x in xs]
    if len(xs) < 2 or any(x <= 0 for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be an increasing list of at least two positive values")
    tails = [poisson_tail(x, c1 * x) for x in xs]
    if any(t <= 0.0 for t in tails):
        raise EstimationError(
            "Poisson tail underflowed at the requested x; lower x or raise precision"
        )
    ys = -np.log(tails)
    slope, intercept = np.polyfit(xs, ys, 1)
    rates = ys / np.asarray(xs)
    rel_change = abs(rates[-1] - rates[-2]) / max(abs(rates[-1]), np.finfo(float).tiny)
    return LdpRateFit(slope=float(slope), intercept=float(intercept), rel_change=float(rel_change))
