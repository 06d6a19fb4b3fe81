#!/usr/bin/env python3
"""Same-machine timing gate: fresh simulation of one bench_scale build
against another's.

    python3 bench/scale_ab.py BASE_BENCH_SCALE CHANGE_BENCH_SCALE

Runs 10 pairs, alternating which side runs first. Each run is
`bench_scale --max-routers 1000 --pipeline-max 0` and scores the geometric
mean of `fresh_sim_s` over its points of 316 routers or more (each point is
already the minimum of three repetitions). The gate fails only when the
change is slower in at least 9 of the 10 pairs and the change's median
score is above the base's upper quartile. It prints every pair, both
medians and both quartile ranges, and exits 1 on a regression or on a run
that fails.
"""
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
MIN_SLOWER_PAIRS = 9
MIN_ROUTERS = 316
ARGS = ["--max-routers", "1000", "--pipeline-max", "0"]


def score_ms(binary, out_path):
    """Geometric mean of fresh_sim_s over the >=316-router points, in ms."""
    run = subprocess.run([binary, *ARGS, "--out", out_path],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True)
    if run.returncode != 0:
        sys.exit(f"{binary} exited {run.returncode}: {run.stderr.strip()}")
    times = [row["fresh_sim_s"] for row in json.load(open(out_path))["sweep"]
             if row["routers"] >= MIN_ROUTERS]
    if not times:
        sys.exit(f"{binary}: no point of {MIN_ROUTERS} routers or more")
    return 1e3 * math.exp(sum(math.log(t) for t in times) / len(times))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"base": sys.argv[1], "change": sys.argv[2]}
    scores = {"base": [], "change": []}
    slower = 0
    with tempfile.TemporaryDirectory() as workdir:
        out_path = os.path.join(workdir, "BENCH_scale.json")
        for pair in range(PAIRS):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for side in order:
                scores[side].append(score_ms(sides[side], out_path))
            base, change = scores["base"][-1], scores["change"][-1]
            slower += change > base
            print(f"pair {pair + 1:2d} ({order[0]} first): base {base:.3f} ms"
                  f"  change {change:.3f} ms  ratio {change / base:.3f}")

    quartiles = {side: statistics.quantiles(values, n=4)
                 for side, values in scores.items()}
    for side, (q1, median, q3) in quartiles.items():
        print(f"{side:6s} median {median:.3f} ms, quartiles "
              f"{q1:.3f}-{q3:.3f} ms")
    base_q3 = quartiles["base"][2]
    change_median = quartiles["change"][1]
    print(f"change slower in {slower}/{PAIRS} pairs; change median "
          f"{change_median:.3f} ms vs base upper quartile {base_q3:.3f} ms")
    if slower >= MIN_SLOWER_PAIRS and change_median > base_q3:
        print("FAIL: fresh simulation is slower than at the base")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
