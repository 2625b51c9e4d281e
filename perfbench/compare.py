"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records that run.py appends to .perfbench_out/results.jsonl
(copy that file aside after measuring each commit). For every workload and
metric it prints both sides' medians and quartiles, the ratio of medians and,
for the end-to-end metrics, whether the change is worse than the parent by
more than the bound in BENCHMARK.json. It refuses, with exit code 2, to
compare results measured on different mkt backends or on different inputs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def refusal(parent: list[dict], change: list[dict]) -> str | None:
    backends = {r["info"]["backend"] for r in parent + change}
    if len(backends) != 1:
        return f"results come from different backends: {sorted(backends)}"
    inputs: dict = {}
    for r in parent + change:
        i = r["info"]
        key = (i["workload"], i["seed"], i["inputs_digest_items"])
        if inputs.setdefault(key, i["inputs_digest"]) != i["inputs_digest"]:
            return f"different inputs for workload {key[0]} at seed {key[1]}"
    return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    series = defaultdict(lambda: ([], []))
    for side, records in enumerate((parent, change)):
        for r in records:
            for name, m in r["result"]["metrics"].items():
                series[(r["info"]["workload"], name)][side].append(m["value"])
    lines = []
    for (workload, name), (a, b) in sorted(series.items()):
        if not a or not b:
            continue
        pa, pb = _quartiles(a), _quartiles(b)
        ratio = pb[1] / pa[1] if pa[1] else float("nan")
        verdict = ""
        if name in bounds:
            m = bounds[name]
            worse = pb[1] - pa[1] if m["better"] == "lower" else pa[1] - pb[1]
            verdict = "WORSE" if worse > m["bound"] * abs(pa[1]) else "ok"
        lines.append(f"{workload:15s} {name:26s} parent {pa[1]:.6g} [{pa[0]:.6g}, {pa[2]:.6g}] "
                     f"n={len(a)}  change {pb[1]:.6g} [{pb[0]:.6g}, {pb[2]:.6g}] n={len(b)}  "
                     f"x{ratio:.4f} {verdict}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    parent, change = load(argv[0]), load(argv[1])
    why = refusal(parent, change)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print("\n".join(compare(parent, change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
