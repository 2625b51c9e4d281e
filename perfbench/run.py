"""Seeded end-to-end benchmark of mkt; README.md beside this file explains it.

    python3 perfbench/run.py --workload ff_reciprocity --seed 1 --seconds 20 --trace 0

One closed loop with one client: a single process and thread feeds one
generated document at a time to mkt.cli.main in process (CLI parse, library
computation, JSON render) and checks every report with the oracles in
oracles.py. With --trace 0 it times items for --seconds and prints the
end-to-end metrics; with --trace 1 it runs a fixed number of items once
untraced and once traced and prints the per-layer metrics. The last line of
stdout is the result object; the line before it records the backend, Python,
CPU count, seed and digests. Every record is also appended to
.perfbench_out/results.jsonl, which compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import gen
import oracles
import probe
from layers import Tracer

SETUP_PROBES = 11
# items of one traced run, whole rounds of each workload's shape mix
TRACE_ITEMS = {"ff_reciprocity": 60, "q_tuples": 72, "ff_tuples": 48}
DIGEST_ITEMS = 60
OUT = probe.ROOT / ".perfbench_out"


def run_item(cli, workload: str, doc: dict, planted: dict):
    """(seconds inside mkt, concatenated report bytes, failure messages)."""
    text = gen.document_text(doc)
    elapsed, outs, raw = 0.0, [], []
    for argv in probe.COMMANDS[workload]:
        t0 = time.perf_counter()
        try:
            code, out = probe.run_command(cli, argv, text)
        except Exception as e:  # a traceback is one failed item, not the end of the run
            elapsed += time.perf_counter() - t0
            return elapsed, b"", [f"{argv[0]} raised {type(e).__name__}: {e}"]
        elapsed += time.perf_counter() - t0
        raw.append(out.encode())
        try:
            outs.append((code, json.loads(out)))
        except json.JSONDecodeError:
            return elapsed, b"".join(raw), [f"{argv[0]} printed no JSON"]
    return elapsed, b"".join(raw), oracles.CHECKS[workload](outs, planted)


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop that does not touch mkt.

    The host's speed drifts by up to +-20% from one second to the next, and
    by as much between runs. Each item's time is divided by the mean of the
    reference times measured just before and just after it, and multiplied by
    REF_SECONDS, the reference time at nominal speed, so it reads as the time
    the item would take at nominal speed.
    """
    t0 = time.perf_counter()
    d, s = {}, 0
    for i in range(40000):
        d[i & 255] = s
        s = (s + i * 7) % 1000003
    return time.perf_counter() - t0


REF_SECONDS = 0.005


def _wall_seconds(argv: list[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=probe.ROOT, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} failed: {proc.stderr.decode()[-2000:]}")
    return elapsed


BARE_SECONDS = 0.05


def setup_probe(workload: str) -> tuple[float, float]:
    """(speed-corrected, wall) time of a fresh interpreter that imports
    mkt.cli and finishes one warm-up item.

    Process start and imports follow the host's process-start speed, which
    drifts by +-20% between runs, more closely than the reference loop's. So
    a bare interpreter (`python3 -c pass`) is started just before each probe,
    and the probe's wall time is scaled by BARE_SECONDS / its wall time.
    """
    bare = _wall_seconds([sys.executable, "-c", "pass"])
    wall = _wall_seconds([sys.executable, str(probe.ROOT / "perfbench" / "probe.py"),
                          workload])
    return wall * BARE_SECONDS / bare, wall


class Run:
    """Items run so far: latencies, failures and the digest of their reports."""

    def __init__(self):
        self.latencies: list[float] = []   # speed-corrected seconds per item
        self.wall: list[float] = []        # wall seconds per item
        self.setup_wall: list[float] = []  # wall seconds per set-up probe
        self.reports: list[bytes] = []     # sha256 of each item's reports
        self.failed = 0
        self.digest = hashlib.sha256()
        self.ref = reference_seconds()

    def item(self, cli, workload: str, n: int, doc: dict, planted: dict) -> None:
        elapsed, report, bad = run_item(cli, workload, doc, planted)
        ref = reference_seconds()
        self.wall.append(elapsed)
        self.latencies.append(elapsed * 2 * REF_SECONDS / (self.ref + ref))
        self.ref = ref
        self.reports.append(hashlib.sha256(report).digest())
        self.digest.update(report)
        if bad:
            self.failed += 1
            print(f"item {n} failed: {'; '.join(bad)}", file=sys.stderr)


def latency_metrics(lat: list[float]) -> dict:
    return {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3
                        if len(lat) >= 2 else lat[0] * 1e3, "ms"),
    }


def measure(cli, workload, stream, seconds) -> tuple[Run, dict]:
    """Items for `seconds`, with the set-up probes spread evenly among them,
    so that their median samples the host's speed over the whole run."""
    run = Run()
    setup: list[float] = []
    probes = SETUP_PROBES
    start = time.perf_counter()
    while not run.latencies or time.perf_counter() - start < seconds:
        if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
            setup.append(setup_probe(workload))
            run.ref = reference_seconds()
        n = len(run.latencies)
        run.item(cli, workload, n, *stream.item(n))
    setup += [setup_probe(workload) for _ in range(probes - len(setup))]
    run.setup_wall = [wall for _, wall in setup]
    metrics = {"setup_s": (statistics.median(c for c, _ in setup), "s"),
               **latency_metrics(run.latencies)}
    metrics["ok_frac"] = ((len(run.latencies) - run.failed) / len(run.latencies), "frac")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB")
    return run, metrics


def traced(cli, workload, stream, items: int) -> tuple[Run, dict, Tracer]:
    """The first `items` items once untraced, then once traced."""
    docs = [stream.item(n) for n in range(items)]
    plain = Run()
    for n, (doc, planted) in enumerate(docs):
        plain.item(cli, workload, n, doc, planted)
    tracer = Tracer()
    run = Run()
    tracer.install()
    try:
        for n, (doc, planted) in enumerate(docs):
            tracer.item = n
            run.item(cli, workload, n, doc, planted)
    finally:
        tracer.uninstall()
    for n, (a, b) in enumerate(zip(plain.reports, run.reports)):
        if a != b:
            run.failed += 1
            print(f"item {n}: traced report differs from untraced", file=sys.stderr)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (sum(run.latencies) / sum(plain.latencies), "ratio")
    return run, metrics, tracer


def write_spans(path, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, item, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "item": item,
                                 "name": name, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cli = probe.import_cli()
    except probe.MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    import mkt

    stream = gen.Stream(args.workload, args.seed)
    probe.warm_up(cli, args.workload)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        run, metrics, tracer = traced(cli, args.workload, stream, TRACE_ITEMS[args.workload])
        write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", tracer)
    else:
        run, metrics = measure(cli, args.workload, stream, args.seconds)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": mkt.backend_name(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_digest": gen.inputs_digest(args.workload, args.seed, DIGEST_ITEMS),
        "inputs_digest_items": DIGEST_ITEMS,
        "reports_digest": run.digest.hexdigest(), "items": len(run.latencies),
    }
    if not args.trace:
        info["wall"] = {"setup_s": statistics.median(run.setup_wall),
                        **{k: v for k, (v, _) in latency_metrics(run.wall).items()}}
    result = {"correct": run.failed == 0, "attempted": len(run.latencies),
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
