#!/usr/bin/env python3
"""Summarises one set of bench_e2e runs, or compares two.

    python3 bench_e2e/agree.py SET            # medians and spreads
    python3 bench_e2e/agree.py SET_A SET_B    # does B hold A's numbers?

A set is a directory of --json records (bench_e2e/run_all.sh writes one).
Spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, as the bounds in
BENCHMARK.json are read.

With two sets, each (end-to-end metric, workload) pair gets one verdict:
  ok          B's median is not worse than A's by more than the bound
  WORSE       it is (a regression; exit status 1)
  unresolved  the spread in either set exceeds the bound, so the sets
              cannot tell a change of that size from noise
and a workload whose host canary (meta.host_ref_ms) differs by more than
10% between the sets is flagged: the host changed speed in between.

Either mode fails (exit 1) when a run failed, or when the metric names the
runs emit and the names BENCHMARK.json lists differ in either direction.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CANARY_TOLERANCE = 0.10
# The client layer rows that add up to client.frame_ms_p50 (the octree rows
# split sr.knn_ms and are not added again).
CLIENT_ROWS = ["stream.parse_ms", "stream.chunk_decode_ms", "codec.decode_ms",
               "sr.knn_ms", "sr.interpolate_ms", "sr.colorize_ms",
               "sr.refine_ms", "client.unattributed_ms"]


def load_set(path):
    """{(trace, workload): [record, ...]} for every record in `path`."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as f:
            record = json.load(f)
        meta = record["meta"]
        runs.setdefault((meta["trace"], meta["workload"]), []).append(record)
    if not runs:
        sys.exit("agree.py: no records in %s" % path)
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def canary(records):
    return statistics.median(sum(r["meta"]["host_ref_ms"]) / 2
                             for r in records)


def check_names(bench, runs, label):
    """Problems with the runs of one set: failures and name mismatches."""
    problems = []
    listed = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for (trace, workload), records in sorted(runs.items()):
        for r in records:
            where = "%s %s seed %s trace %s" % (label, workload,
                                                r["meta"]["seed"], trace)
            if not r["correct"] or r["failed"]:
                problems.append("%s: %d of %d operations failed"
                                % (where, r["failed"], r["attempted"]))
            emitted = {k: v["unit"] for k, v in r["metrics"].items()}
            for name in sorted(set(emitted) - set(listed[trace])):
                problems.append("%s: emits %s, not in BENCHMARK.json"
                                % (where, name))
            for name in sorted(set(listed[trace]) - set(emitted)):
                problems.append("%s: BENCHMARK.json lists %s, not emitted"
                                % (where, name))
            for name in sorted(set(emitted) & set(listed[trace])):
                if emitted[name] != listed[trace][name]:
                    problems.append("%s: %s unit %s, BENCHMARK.json says %s"
                                    % (where, name, emitted[name],
                                       listed[trace][name]))
    return problems


def summarise(bench, runs):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for workload in [w["name"] for w in bench["workloads"]]:
            records = runs.get((trace, workload))
            if not records:
                continue
            print("\n%s  %s  (%d runs, canary %.1f ms)"
                  % (workload, kind, len(records), canary(records)))
            for m in bench[kind]:
                v = values(records, m["name"])
                if v:
                    print("  %-34s %14.6g %-8s spread %5.1f%%"
                          % (m["name"], statistics.median(v), m["unit"],
                             100 * spread(v)))
            if trace == 1 and workload.startswith("client"):
                gap = max(abs(sum(r["metrics"][n]["value"]
                                  for n in CLIENT_ROWS)
                              - r["metrics"]["client.frame_ms_p50"]["value"])
                          for r in records)
                print("  per-layer rows + client.unattributed_ms ="
                      " client.frame_ms_p50 in every run (largest gap"
                      " %.2g ms)" % gap)


def compare(bench, runs_a, runs_b):
    metrics = bench["end_to_end"]
    worse = False
    print("%-14s" % "workload" + "".join("%-24s" % m["name"] for m in metrics))
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = runs_a.get((0, workload)), runs_b.get((0, workload))
        if not a or not b:
            print("%-14s missing from %s" % (workload, "A" if not a else "B"))
            worse = True
            continue
        cells = []
        for m in metrics:
            va, vb = values(a, m["name"]), values(b, m["name"])
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            if m["better"] == "higher":
                change = -change
            if max(spread(va), spread(vb)) > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "WORSE"
                worse = True
            else:
                verdict = "ok"
            cells.append("%+6.1f%% %-15s" % (100 * change, verdict))
        drift = canary(b) / canary(a) - 1
        flag = ("  canary %+.1f%%: host speed changed" % (100 * drift)
                if abs(drift) > CANARY_TOLERANCE else "")
        print("%-14s" % workload + "".join(cells) + flag)
    print("\ncells: change of B against A, positive = worse; bound per metric:"
          " " + ", ".join("%s %g" % (m["name"], m["bound"]) for m in metrics))
    return worse


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load_set(p) for p in sys.argv[1:]]
    problems = []
    for label, runs in zip("AB", sets):
        problems += check_names(bench, runs, label)
    if len(sets) == 1:
        summarise(bench, sets[0])
        worse = False
    else:
        worse = compare(bench, *sets)
    for p in problems:
        print("problem: " + p)
    sys.exit(1 if problems or worse else 0)


if __name__ == "__main__":
    main()
