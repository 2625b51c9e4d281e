"""Write a BENCH_*.json trajectory file from two sets of benchmark records.

    python3 tools/bench_file.py PARENT.jsonl CHANGE.jsonl --out BENCH_name.json \
        --parent-commit SHA --change "what changed" --host "machine" \
        --method "how it was run" [--claim WORKLOAD:METRIC:AT_LEAST]

PARENT.jsonl and CHANGE.jsonl hold the records `perfbench/run.py` appends to
`.perfbench_out/results.jsonl`, one file per commit. Untraced records of
one workload are paired by seed; for every end-to-end metric named in
BENCHMARK.json the file gets each side's median and quartiles over its
runs, the ratio of the medians, the parent's quartile distance over its
median and the number of pairs the change wins. The traced seed-1 records
give the inputs and report digests, whether the reports are identical, and
the layer split of both sides. When one side holds several records for one
(workload, seed, trace), the last one counts.

With --claim the file also says whether the claim is met: the change wins
at least 9 of every 10 pairs (a tie counts for neither side), the medians
differ by more than the parent's quartile distance, and the ratio of the
medians, taken so that a gain is above 1 (parent over change for a metric
where lower is better), reaches AT_LEAST.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _latest(records: list[dict]) -> dict:
    """(workload, seed, trace) -> the last record with that key."""
    out = {}
    for r in records:
        i = r["info"]
        out[(i["workload"], i["seed"], i["trace"])] = r
    return out


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def _value(record: dict, name: str) -> float:
    return record["result"]["metrics"][name]["value"]


def workload_summary(runs: list[dict], traced: list, metrics: list[dict]) -> dict:
    """runs: one {side: record} per paired seed; traced: each side's traced
    seed-1 record, or None."""
    out = {"pairs": len(runs), "seeds": [r["parent"]["info"]["seed"] for r in runs],
           "attempted": {s: sum(r[s]["result"]["attempted"] for r in runs) for s in SIDES},
           "failed": {s: sum(r[s]["result"]["failed"] for r in runs) for s in SIDES}}
    if traced[0] is not None:
        out["inputs_digest_seed_1"] = traced[0]["info"]["inputs_digest"]
        out["reports_digest_seed_1"] = {s: t["info"]["reports_digest"] if t else None
                                        for s, t in zip(SIDES, traced)}
        digests = out["reports_digest_seed_1"]
        out["reports_identical_seed_1"] = (digests["parent"] == digests["change"]
                                           if all(traced) else None)
    for m in metrics:
        name = m["name"]
        values = {s: [_value(r[s], name) for r in runs] for s in SIDES}
        entry = {s: _spread(values[s]) for s in SIDES}
        parent_median = statistics.median(values["parent"])
        entry["change_over_parent"] = round(
            statistics.median(values["change"]) / parent_median, 4) if parent_median else None
        entry["parent_iqr_frac"] = round(
            (entry["parent"]["q3"] - entry["parent"]["q1"]) / parent_median,
            4) if parent_median else None
        sign = 1 if m["better"] == "higher" else -1
        entry["change_wins"] = sum(sign * (c - p) > 0
                                   for p, c in zip(values["parent"], values["change"]))
        out[name] = entry
    if all(traced):
        names = traced[0]["result"]["metrics"]
        out["trace_seed_1"] = {name: {s: round(_value(t, name), 4)
                                      for s, t in zip(SIDES, traced)} for name in names}
    return out


def claim_met(summary: dict, metric: dict, at_least: float) -> bool:
    """Whether one workload's summary bears out a gain of at_least on metric."""
    entry = summary[metric["name"]]
    parent, change = entry["parent"], entry["change"]
    p, c = parent["median"], change["median"]
    gain, base = (c, p) if metric["better"] == "higher" else (p, c)
    return (10 * entry["change_wins"] >= 9 * summary["pairs"]
            and abs(c - p) > parent["q3"] - parent["q1"]
            and gain >= at_least * base)


def summarize(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """{workload: summary} over the seeds both sides ran untraced."""
    sides = [_latest(parent), _latest(change)]
    workloads = {}
    for key in sorted(sides[0]):
        workload, seed, trace = key
        if trace or key not in sides[1]:
            continue
        pair = {s: side[key] for s, side in zip(SIDES, sides)}
        digests = {pair[s]["info"]["inputs_digest"] for s in SIDES}
        if len(digests) != 1:
            raise ValueError(f"different inputs for {workload} at seed {seed}")
        workloads.setdefault(workload, []).append(pair)
    return {w: workload_summary(runs, [side.get((w, 1, 1)) for side in sides],
                                spec["end_to_end"])
            for w, runs in workloads.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change", dest="what", required=True)
    ap.add_argument("--host", required=True)
    ap.add_argument("--method", required=True)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC:AT_LEAST")
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    try:
        workloads = summarize(load(args.parent), load(args.change), spec)
    except ValueError as e:
        print(f"bench_file: {e}", file=sys.stderr)
        return 2
    doc = {"change": args.what, "parent_commit": args.parent_commit, "host": args.host,
           "method": args.method}
    if args.claim:
        workload, metric, least = args.claim.split(":")
        spec_metric = {m["name"]: m for m in spec["end_to_end"]}.get(metric)
        if spec_metric is None:
            print(f"bench_file: no end-to-end metric {metric}", file=sys.stderr)
            return 2
        doc["claim"] = {"workload": workload, "metric": metric, "at_least": float(least),
                        "met": workload in workloads and claim_met(
                            workloads[workload], spec_metric, float(least))}
    doc["workloads"] = workloads
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
