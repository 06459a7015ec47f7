"""The diversion-idling diagnostic against the exact laws of a threshold queue.

Under a threshold policy the queue is a birth-death chain on {0, ..., x}, so
once the warm-up has mixed, the queue Q0 at the relabeled origin follows
that chain's stationary law ``probs``.  e1 is read off the stream after the
origin and Q0 off the stream before it, so the two are independent, and:

* P(e2) = P(Q0 <= 6 q_ref) = ``mass_at_or_below(6 q_ref)``;
* E[L0 | e1, e2] = ``mass_at_or_below(2 q_ref) / mass_at_or_below(6 q_ref)``;
* P(Q0 = q) = ``probs[q]`` for every state q.

Arrivals and tokens are Poisson and see the stationary law, so over all
samples the diversions Y on the drift stretch (U1, U2] have mean
lambda pi(x) B, and the wasted tokens J from the origin to U3 + phi W have
mean (1 - p) pi(0) (U3 + phi W).  x*'s own mean queue lies within a state
of x*, so each geometry sets a q_ref with 6 q_ref < x*, so that e2 is not
certain; the second puts 6 q_ref on an integer, where e2's `<=` matters.
The runs go through ``run_config``, which resolves threshold:auto to x*.

The law of Q0 cannot tell the queue at the origin from the queue one event
before or after it: at a constant event rate either is stationary too.  So
the first samples' Q0 are also checked against their own paths, rebuilt
from the sample's seed.
"""

import csv
import json
import math

import pytest

from qadmit import cli, excursion
from qadmit.policy import min_feasible_law
from qadmit.sim import run_simulation
from qadmit.stream import ModelParams, generate_stream, replication_seed

# (lambda, q_ref, samples, seed); W = 1
GEOMETRIES = {
    # x* = 2, 6 q_ref = 1.08: e2 is Q0 <= 1 and L0 is Q0 = 0
    "x2": (0.9, 0.18, 1500, 7),
    # x* = 4, 6 q_ref = 3 exactly: e2 is Q0 <= 3 and L0 is Q0 <= 1
    "x4-integer-e2": (0.96875, 0.5, 1500, 8),
}
P = 0.5
GEOMETRY = dict(k=2.0, epsilon=0.3, zeta=2.0, phi=1.0)


def _diagnostic(tmp_path, monkeypatch, lam, q_ref, n, seed):
    """The diagnostic's report and per-sample rows of one threshold:auto run."""
    monkeypatch.setattr(excursion, "DEFAULT_WARMUP_EVENTS", 2000)  # ~1400 time units
    out = tmp_path / "diag"
    cfg = cli.RunConfig(kind="diagnostic", p=P, lambdas=(lam,), window_rule="constant:1",
                        policy="threshold:auto", n_samples=n, master_seed=seed, q_ref=q_ref,
                        per_sample_csv=True, out_dir=str(out), **GEOMETRY)
    assert cli.run_config(cfg) == cli.EXIT_OK
    with open(out / "diagnostic_samples.csv") as fh:
        rows = [{key: int(row[key]) for key in ("e1", "e2", "Y", "J", "L0", "Q0")}
                for row in csv.DictReader(fh)]
    return json.loads((out / "diagnostic.json").read_text()), rows


def _within_four_se(name, hits, n, exact):
    est = hits / n
    se = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(est - exact) <= 4.0 * se, (name, est, exact, se)


def _mean_within_four_se(name, values, exact):
    n = len(values)
    mean = sum(values) / n
    se = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1) / n)
    assert abs(mean - exact) <= 4.0 * se, (name, mean, exact, se)


@pytest.mark.parametrize("name", GEOMETRIES)
def test_diagnostic_within_four_se_of_the_exact_laws(tmp_path, monkeypatch, name):
    lam, q_ref, n, seed = GEOMETRIES[name]
    params = ModelParams(lam, P, 1.0)
    law = min_feasible_law(params)
    x = law.threshold
    assert 6.0 * q_ref < x
    report, rows = _diagnostic(tmp_path, monkeypatch, lam, q_ref, n, seed)
    assert report["policy"] == "threshold:auto" and report["q_ref"] == q_ref
    assert max(r["Q0"] for r in rows) <= x

    low, small = law.mass_at_or_below(2.0 * q_ref), law.mass_at_or_below(6.0 * q_ref)
    assert 0.01 < small < 0.99, small
    _within_four_se("e2", sum(r["e2"] for r in rows), n, small)
    cond = [r for r in rows if r["e1"] and r["e2"]]
    assert len(cond) == report["n_conditional"] >= 200
    _within_four_se("L0 | e1, e2", sum(r["L0"] for r in cond), len(cond), low / small)
    for q in range(x + 1):
        _within_four_se(f"Q0 = {q}", sum(r["Q0"] == q for r in rows), n, float(law.probs[q]))

    config = excursion.ExcursionConfig(params=params, q_ref=q_ref, **GEOMETRY)
    u1, u2, u3 = config.markers
    _mean_within_four_se("Y", [r["Y"] for r in rows], lam * float(law.probs[x]) * (u2 - u1))
    _mean_within_four_se("J", [r["J"] for r in rows],
                         (1.0 - P) * float(law.probs[0]) * (u3 + config.deadline))

    # sample i's stream is keyed (seed, i) and runs W past the base path's end
    origin = report["warmup_time"]
    t_end = origin + config.horizon_needed
    for i, row in enumerate(rows[:5]):
        stream = generate_stream(params, t_end + params.window, replication_seed(seed, i))
        traj, _, _ = run_simulation(stream, f"threshold:x={x}", t_end=t_end)
        assert row["Q0"] == traj.queue_at(stream, origin), i
