import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import qadmit
from qadmit.analytic import (
    bd_stationary,
    ldp_rate_estimate,
    online_scaling_table,
    poisson_tail,
)
from qadmit.errors import ConfigurationError, EstimationError
from qadmit.stream import ModelParams


def brute_force_stationary(params: ModelParams, x: int) -> np.ndarray:
    """Independent oracle: solve pi Q = 0 for the explicit (x+1)-state generator."""
    lam, mu = params.arrival_rate, params.service_rate
    gen = np.zeros((x + 1, x + 1))
    for q in range(x + 1):
        if q < x:
            gen[q, q + 1] = lam
        if q > 0:
            gen[q, q - 1] = mu
        gen[q, q] = -gen[q].sum()
    a = np.vstack([gen.T, np.ones(x + 1)])
    b = np.zeros(x + 2)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


def poisson_tail_mp(mean: float, threshold: float) -> float:
    """Extended-precision brute-force pmf summation."""
    k0 = max(int(math.ceil(threshold)), 0)
    if k0 <= 0:
        return 1.0
    with mpmath.workdps(60):
        term = mpmath.e ** (-mean) * mpmath.mpf(mean) ** k0 / mpmath.factorial(k0)
        total = term
        k = k0
        while term > total * mpmath.mpf(10) ** -45 or k < mean:
            k += 1
            term *= mpmath.mpf(mean) / k
            total += term
        return float(total)


def test_bd_closed_form_example():
    params = ModelParams(0.9, 0.5)
    sol = bd_stationary(params, 2)
    expected = np.array([1.0, 1.8, 3.24]) / 6.04
    assert np.allclose(sol.probs, expected, atol=1e-14)
    assert sol.mean_queue == pytest.approx(8.28 / 6.04, abs=1e-12)
    assert sol.diversion_rate == pytest.approx(0.9 * 3.24 / 6.04, abs=1e-12)
    assert sol.rho == pytest.approx(1.8)


def test_bd_rejects_a_negative_threshold():
    with pytest.raises(ValueError, match="threshold"):
        bd_stationary(ModelParams(0.9, 0.5), -1)


def test_mass_below_zero_is_zero():
    sol = bd_stationary(ModelParams(0.9, 0.5), 2)
    assert sol.mass_at_or_below(-0.5) == 0.0
    assert sol.mass_at_or_below(0.0) == pytest.approx(1.0 / 6.04, abs=1e-14)


def test_bd_degenerate_threshold():
    sol = bd_stationary(ModelParams(0.9, 0.5), 0)
    assert sol.probs.tolist() == [1.0]
    assert sol.mean_queue == 0.0
    assert sol.diversion_rate == pytest.approx(0.9)


@pytest.mark.parametrize("lam,p", [(0.9, 0.5), (0.55, 0.5), (0.99, 0.3), (0.8, 0.75)])
@pytest.mark.parametrize("x", [0, 1, 3, 10, 27, 50])
def test_bd_matches_generator_solve(lam, p, x):
    params = ModelParams(lam, p)
    sol = bd_stationary(params, x)
    assert abs(sol.probs.sum() - 1.0) <= 1e-12
    oracle = brute_force_stationary(params, x)
    assert np.max(np.abs(sol.probs - oracle)) <= 1e-10


def test_bd_stable_for_large_threshold():
    sol = bd_stationary(ModelParams(0.999, 0.5), 5000)
    assert math.isfinite(sol.mean_queue)
    assert abs(sol.probs.sum() - 1.0) <= 1e-12
    assert 0 <= sol.mean_queue <= 5000


# numpy's AVX-512 kernels off, and OpenBLAS's Haswell kernels: what a CPU
# without AVX-512 runs
NO_AVX512_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                 "OPENBLAS_CORETYPE": "Haswell"}
BD_POINTS = [(0.9, 0.5, 2), (0.55, 0.5, 27), (0.99, 0.3, 50), (0.999, 0.5, 5000)]
_BD_BITS = """
import json, sys
try:
    import numpy
except Exception as exc:  # the variable names features this numpy does not know
    print(json.dumps({"skip": repr(exc)}))
    sys.exit()
sys.path.insert(0, sys.argv[1])
from qadmit.analytic import bd_stationary
from qadmit.stream import ModelParams
sols = [bd_stationary(ModelParams(lam, p), x) for lam, p, x in json.loads(sys.argv[2])]
print(json.dumps([[v.hex() for v in s.probs.tolist()] + [s.mean_queue.hex(),
                  s.diversion_rate.hex()] for s in sols]))
"""


def test_bd_stationary_bits_do_not_depend_on_cpu_features():
    src = str(Path(qadmit.__file__).resolve().parents[1])
    want = [[v.hex() for v in s.probs.tolist()] + [s.mean_queue.hex(), s.diversion_rate.hex()]
            for s in (bd_stationary(ModelParams(lam, p), x) for lam, p, x in BD_POINTS)]
    proc = subprocess.run([sys.executable, "-c", _BD_BITS, src, json.dumps(BD_POINTS)],
                          env=os.environ | NO_AVX512_ENV, capture_output=True, text=True,
                          timeout=120, check=True)
    got = json.loads(proc.stdout)
    if isinstance(got, dict):
        pytest.skip(f"numpy does not import under {NO_AVX512_ENV}: {got['skip']}")
    assert got == want


def test_diversion_rate_decreasing_with_drift_limit():
    params = ModelParams(0.9, 0.5)
    rates = [bd_stationary(params, x).diversion_rate for x in range(60)]
    # strictly decreasing until the geometric correction sinks below float
    # resolution, then flat to within rounding noise
    assert all(a > b for a, b in zip(rates[:30], rates[1:30]))
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    assert rates[-1] == pytest.approx(params.drift, abs=1e-6)
    assert rates[-1] < params.divert_budget


@pytest.mark.parametrize("lam,p", [(0.9, 0.5), (0.75, 0.4), (0.95, 0.2), (0.6, 0.8)])
@pytest.mark.parametrize("x", [1, 2, 5, 12, 30])
def test_markov_mass_bound(lam, p, x):
    sol = bd_stationary(ModelParams(lam, p), x)
    assert sol.mass_at_or_below(2.0 * sol.mean_queue) >= 0.5


def test_scaling_table_shape_and_trend():
    lams = [1 - 2.0**-k for k in range(4, 13)]
    rows = online_scaling_table(0.5, lams)
    assert [r.arrival_rate for r in rows] == sorted(lams)
    assert rows[1].log_term == pytest.approx(5.0)  # k=5: log2(32)
    ratios = [r.ratio for r in rows]
    # ratio approaches 1: final three within 10% of each other
    tail = ratios[-3:]
    assert max(tail) - min(tail) <= 0.10 * max(tail)
    assert all(r.diversion_rate <= 0.5 for r in rows)
    # thresholds and mean queues grow with lambda
    assert all(a.x_star <= b.x_star for a, b in zip(rows, rows[1:]))


def test_scaling_table_rejects_out_of_range():
    with pytest.raises(ConfigurationError):
        online_scaling_table(0.5, [0.4])
    with pytest.raises(ConfigurationError):
        online_scaling_table(0.5, [1.0])


def test_poisson_tail_trivia():
    assert poisson_tail(3.0, 0.0) == 1.0
    assert poisson_tail(3.0, -2.5) == 1.0
    assert poisson_tail(1.0, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-15)
    with pytest.raises(ValueError):
        poisson_tail(0.0, 1.0)


@pytest.mark.parametrize(
    "mean,threshold",
    [
        (100.0, 150.0),
        (100.0, 90.0),
        (5.0, 2.0),
        (3.3, 7.5),
        (800.0, 1000.0),
        (50.0, 50.0),
        (1.0, 30.0),
        (745.0, 900.0),
        (2000.0, 2100.0),
    ],
)
def test_poisson_tail_vs_extended_precision(mean, threshold):
    assert poisson_tail(mean, threshold) == pytest.approx(
        poisson_tail_mp(mean, threshold), abs=1e-14
    )


def test_poisson_tail_non_integer_threshold_matches_ceiling():
    assert poisson_tail(10.0, 12.2) == poisson_tail(10.0, 13.0)


def test_ldp_rate_fit_examples():
    fit = ldp_rate_estimate(2.0, [50, 100, 200, 400])
    cramer = 2 * math.log(2) - 1
    assert abs(fit.slope - cramer) <= 0.1 * cramer
    assert fit.rel_change < 0.05

    central = ldp_rate_estimate(1.0, [50, 100, 200, 400])
    assert abs(central.slope) < 0.01

    for c1 in (1.2, 1.5, 3.0):
        assert ldp_rate_estimate(c1, [40, 80, 160]).slope > 0


def test_ldp_rate_fit_errors():
    with pytest.raises(ValueError):
        ldp_rate_estimate(0.5, [10, 20])
    with pytest.raises(ValueError):
        ldp_rate_estimate(2.0, [10])
    with pytest.raises(ValueError):
        ldp_rate_estimate(2.0, [20, 10])
    with pytest.raises(EstimationError):
        ldp_rate_estimate(3.0, [1000, 2000, 4000])  # tail underflows float64
