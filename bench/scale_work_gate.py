#!/usr/bin/env python3
"""Exact work gate over bench_scale's pipeline points.

    python3 bench/scale_work_gate.py RUN.json CHECKED_IN.work.json

RUN.json is a BENCH_scale.json. Each of its pipeline points carries
`pipeline_work`, the trace's deterministic half (span counts and counters,
histograms; no durations), which is the same for a given seed at any
worker count. The gate compares every value of every point with the
checked-in file and fails on:

  * a differing value, naming the point, span path, counter, expected
    and actual value;
  * a checked-in point the run lacks, or a run point the file lacks;
  * a run in which no point was compared.

On failure it writes the run's work in the checked-in format next to
RUN.json (RUN.work.json) and prints the `cp` that adopts it. A change that
alters work on purpose checks that file in; its diff shows each count that
moved.
"""
import json
import os
import sys

SCHEMA = "confmask.bench-scale-work/1"


def run_work(path):
    """{"family/routers": {"spans": ..., "histograms": ...}} of a run."""
    points = {}
    for row in json.load(open(path))["sweep"]:
        metrics = row.get("pipeline_work")
        if metrics is None:
            continue
        points[f"{row['family']}/{row['routers']}"] = {
            "spans": {span["path"]: {"count": span["count"],
                                     "counters": span["counters"]}
                      for span in metrics["spans"]},
            "histograms": {hist["name"]: {key: value
                                          for key, value in hist.items()
                                          if key != "name"}
                           for hist in metrics["histograms"]},
        }
    return points


def render(value, depth=0):
    """JSON with one scalar per line (lists stay on one line), so that a
    diff of two work files shows exactly the values that changed."""
    if not isinstance(value, dict) or not value:
        return json.dumps(value)
    pad = "  " * (depth + 1)
    items = [f"{pad}{json.dumps(key)}: {render(value[key], depth + 1)}"
             for key in sorted(value)]
    return "{\n" + ",\n".join(items) + "\n" + "  " * depth + "}"


def leaves(value, prefix=()):
    """{(key, key, ...): scalar} over every leaf of nested dicts."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, child in value.items():
        out.update(leaves(child, prefix + (key,)))
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    run_path, expected_path = sys.argv[1], sys.argv[2]
    current = run_work(run_path)
    expected = json.load(open(expected_path))
    assert expected["schema"] == SCHEMA, expected_path
    expected = expected["points"]

    failures = []
    compared = 0
    for point in sorted(expected.keys() | current.keys()):
        if point not in current:
            failures.append(f"{point}: missing from the run")
            continue
        if point not in expected:
            failures.append(f"{point}: not in {expected_path}")
            continue
        compared += 1
        want, got = leaves(expected[point]), leaves(current[point])
        for key in sorted(want.keys() | got.keys()):
            if want.get(key) != got.get(key):
                failures.append(
                    f"{point}: {' '.join(key)}: expected "
                    f"{json.dumps(want.get(key, 'absent'))}, got "
                    f"{json.dumps(got.get(key, 'absent'))}")
    if compared == 0:
        failures.append("no pipeline point was compared")

    for line in failures:
        print(line)
    if not failures:
        print(f"work identical at all {compared} pipeline points")
        return 0

    out_path = os.path.splitext(run_path)[0] + ".work.json"
    with open(out_path, "w") as out:
        out.write(render({"schema": SCHEMA, "points": current}) + "\n")
    print(f"{len(failures)} difference(s). This run's work is in {out_path};"
          f" if the change in work is intended:\n"
          f"  cp {out_path} {expected_path}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
