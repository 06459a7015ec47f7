"""Delay and foresight trade against each other, but their sum is floored.

Sweep the window coefficient c (W = c ln(1/(1-lambda))) and track
(mean queue + W) / ln(1/(1-lambda)): no choice of c pushes the sum below a
constant.  Pay in queue (c = 0) or pay in window (large c) -- the log-scale
bill arrives either way.

The second half runs the warm-started diagnostic that connects diversions
to later idling: shrinking the certification window makes the drain policy
waste tokens, which is exactly the mechanism that forces the floor.
"""

from qadmit import (
    ExcursionConfig,
    ModelParams,
    diversion_idling_diagnostic,
    reference_queue,
)
from qadmit.cli import RunConfig, conservation_sweep
from qadmit.stream import log_scale

grid = tuple(1 - 2.0**-k for k in range(3, 6))
cfg = RunConfig(
    kind="conserve", p=0.5, lambdas=grid, c_values=(0.0, 1.0, 2.0, 4.0, 8.0),
    policy="auto", horizon=30_000.0, seeds=3, master_seed=9, burn_in=0.2, workers=1,
)
rows = conservation_sweep(cfg)

print("(mean queue + W) / ln(1/(1-lambda)) by window coefficient c:\n")
print(f"{'lambda':>10} " + "".join(f"{f'c={c:g}':>9}" for c in cfg.c_values) + f"{'min':>9}")
for lam in grid:
    cells = {r["c"]: r["ratio"] for r in rows if r["lambda"] == lam and r["aggregate_flag"] == 1}
    mins = [r["ratio"] for r in rows if r["lambda"] == lam and r["aggregate_flag"] == 2]
    print(f"{lam:10.6f} " + "".join(f"{cells[c]:9.3f}" for c in cfg.c_values) + f"{mins[0]:9.3f}")
print("\nthe min column stays bounded away from zero: queue and lookahead are")
print("exchangeable currencies with a conserved log-scale total")

print("\n--- diversion/idling diagnostic (warm-started, relabeled origin) ---")
lam, p = 0.95, 0.5
for mult in (0.5, 10.0):
    window = mult * log_scale(lam)
    params = ModelParams(lam, p, window)
    q_ref, source = reference_queue(params, "windowed-drain", seed=1, pilot_horizon=20_000.0)
    config = ExcursionConfig(params=params, k=2.0, epsilon=0.1, zeta=2.0, phi=1.0, q_ref=q_ref)
    rep, rows = diversion_idling_diagnostic(
        config, "windowed-drain", n_samples=80, seed=2,
        warmup_time=max(100.0 * window, 3000.0),
    )
    wasted = sum(r["J"] for r in rows) / len(rows)
    print(f"W = {window:5.2f} ({mult:4.1f} x log term): q_ref={q_ref:.2f} [{source}], "
          f"P(Q(0) <= 6 q_ref) = {rep.p_e2.mean:.3f}, wasted tokens/path = {wasted:.3f}")
print("\nshort windows waste tokens (idling the server the budget was meant to")
print("protect); long windows certify the waste away before it happens")
