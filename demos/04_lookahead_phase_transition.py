"""The phase transition: enough lookahead keeps the queue bounded.

Sweep arrival rates toward 1 under two regimes: no lookahead with the
optimal online threshold, and a window growing like 8 ln(1/(1-lambda))
driving the certified-drain heuristic.  The online queue climbs with every
step toward heavy traffic; the lookahead queue just sits there.

Uses a scaled-down budget so it runs in under a minute; the acceptance
suite runs the full-size version.
"""

from qadmit.cli import RunConfig, phase_sweep
from qadmit.stream import log_scale

grid = tuple(1 - 2.0**-k for k in range(3, 7))

print("lookahead rule log:8 (windowed-drain) vs zero (threshold:auto)\n")
print(f"{'k':>3} {'lambda':>10} {'W':>7} | {'lookahead Q':>12} | {'online Q':>9} {'~log term':>9}")

results = {}
for rule, policy in (("log:8", "windowed-drain"), ("zero", "threshold:auto")):
    cfg = RunConfig(
        kind="phase", p=0.5, lambdas=grid, window_rule=rule, policy=policy,
        horizon=60_000.0, seeds=4, master_seed=1, burn_in=0.4, workers=1,
    )
    results[rule] = [r for r in phase_sweep(cfg) if r["aggregate_flag"] == 1]

for k, look, online in zip(range(3, 7), results["log:8"], results["zero"]):
    lam = look["lambda"]
    print(f"{k:3d} {lam:10.6f} {look['window']:7.2f} | "
          f"{look['mean_queue_event']:12.3f} | {online['mean_queue_event']:9.3f} "
          f"{log_scale(lam):9.3f}")

print("""
Reading the table: the online column tracks ln(1/(1-lambda)), adding
roughly ln 2 per row, while the lookahead column is flat near 2, twice
the heavy-traffic limit (1-p)/p = 1.  The lookahead window purchases a
bounded queue precisely because it grows at the logarithmic rate; the
excursion demo shows why a slower-growing window cannot.
""")
