"""tools/bench_file.py on two tiny synthetic benchmark records."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"
spec = importlib.util.spec_from_file_location("bench_file", TOOL)
bench_file = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_file)

METRICS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
           "setup_s": "s", "ok_frac": "frac", "peak_rss_mb": "MB"}


def record(seed, trace, items_per_s, p50, digest="in", reports="out"):
    values = {"items_per_s": items_per_s, "item_p50_ms": p50, "item_p90_ms": 2 * p50,
              "setup_s": 0.1, "ok_frac": 1.0, "peak_rss_mb": 20.0}
    if trace:
        values = {"linalg.self_s": p50 / 10, "fields.elements": 1000 * items_per_s}
    return {"info": {"workload": "q_tuples", "seed": seed, "trace": trace,
                     "inputs_digest": digest, "reports_digest": reports},
            "result": {"attempted": 10, "failed": 0,
                       "metrics": {k: {"value": v, "unit": METRICS.get(k, "count")}
                                   for k, v in values.items()}}}


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_writes_the_layout(tmp_path):
    parent = write(tmp_path / "p.jsonl", [record(7, 0, 20.0, 40.0), record(1, 1, 2.0, 5.0)])
    change = write(tmp_path / "c.jsonl", [record(7, 0, 40.0, 20.0), record(1, 1, 1.0, 3.0)])
    out = tmp_path / "BENCH_x.json"
    assert bench_file.main([parent, change, "--out", str(out), "--parent-commit", "abc",
                            "--change", "faster", "--host", "h", "--method", "m",
                            "--claim", "q_tuples:items_per_s:1.5"]) == 0
    doc = json.loads(out.read_text())
    assert doc["parent_commit"] == "abc" and doc["change"] == "faster"
    assert doc["claim"] == {"workload": "q_tuples", "metric": "items_per_s", "at_least": 1.5}
    w = doc["workloads"]["q_tuples"]
    assert w["pairs"] == 1 and w["seeds"] == [7]
    assert w["attempted"] == {"parent": 10, "change": 10}
    assert w["inputs_digest_seed_1"] == "in"
    assert w["reports_digest_seed_1"] == {"parent": "out", "change": "out"}
    assert w["items_per_s"]["parent"] == {"median": 20.0, "q1": 20.0, "q3": 20.0}
    assert w["items_per_s"]["change_over_parent"] == 2.0
    # higher is better for items_per_s, lower for the latency
    assert w["items_per_s"]["change_wins"] == 1
    assert w["item_p50_ms"]["change_wins"] == 1
    assert w["setup_s"]["change_wins"] == 0
    assert w["trace_seed_1"]["fields.elements"] == {"parent": 2000.0, "change": 1000.0}
    assert set(METRICS) <= set(w)


def test_refuses_different_inputs(tmp_path):
    parent = write(tmp_path / "p.jsonl", [record(7, 0, 20.0, 40.0)])
    change = write(tmp_path / "c.jsonl", [record(7, 0, 40.0, 20.0, digest="other")])
    with pytest.raises(ValueError, match="different inputs"):
        bench_file.summarize(bench_file.load(parent), bench_file.load(change),
                             json.loads(bench_file.BENCHMARK.read_text()))
