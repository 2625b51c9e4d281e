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
    assert doc["claim"] == {"workload": "q_tuples", "metric": "items_per_s", "at_least": 1.5,
                            "met": True}
    w = doc["workloads"]["q_tuples"]
    assert w["pairs"] == 1 and w["seeds"] == [7]
    assert w["attempted"] == {"parent": 10, "change": 10}
    assert w["inputs_digest_seed_1"] == "in"
    assert w["reports_digest_seed_1"] == {"parent": "out", "change": "out"}
    assert w["reports_identical_seed_1"] is True
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


def claim_doc(tmp_path, parent_speeds, change_speeds, claim, traced_reports="out"):
    """The file for paired runs at seeds 1001, ... with the given items_per_s
    and an item_p50_ms of 1000 / items_per_s, plus a traced seed-1 pair whose
    change reports are traced_reports."""
    seeds = range(1001, 1001 + len(parent_speeds))

    def runs(speeds, reports):
        return ([record(s, 0, v, 1000.0 / v) for s, v in zip(seeds, speeds)]
                + [record(1, 1, 2.0, 5.0, reports=reports)])

    parent = write(tmp_path / "p.jsonl", runs(parent_speeds, "out"))
    change = write(tmp_path / "c.jsonl", runs(change_speeds, traced_reports))
    out = tmp_path / "BENCH_x.json"
    assert bench_file.main([parent, change, "--out", str(out), "--parent-commit", "abc",
                            "--change", "c", "--host", "h", "--method", "m",
                            "--claim", claim]) == 0
    return json.loads(out.read_text())


PARENT_SPEEDS = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def test_claim_needs_nine_wins_in_ten(tmp_path):
    # a large median gain, but the change loses 2 of 10 pairs
    change = [130.0] * 8 + [90.0, 90.0]
    doc = claim_doc(tmp_path, PARENT_SPEEDS, change, "q_tuples:items_per_s:1.15")
    assert doc["workloads"]["q_tuples"]["items_per_s"]["change_wins"] == 8
    assert doc["claim"]["met"] is False


def test_claim_met_on_ten_wins_beyond_the_spread(tmp_path):
    change = [v * 1.25 for v in PARENT_SPEEDS]
    doc = claim_doc(tmp_path, PARENT_SPEEDS, change, "q_tuples:items_per_s:1.15")
    assert doc["workloads"]["q_tuples"]["items_per_s"]["change_wins"] == 10
    assert doc["claim"]["met"] is True
    # the same runs do not reach a larger factor
    assert claim_doc(tmp_path, PARENT_SPEEDS, change,
                     "q_tuples:items_per_s:1.3")["claim"]["met"] is False


def test_claim_within_the_spread_or_tied_is_not_met(tmp_path):
    # 10 wins, but by less than the parent's quartile distance
    change = [v + 0.5 for v in PARENT_SPEEDS]
    assert claim_doc(tmp_path, PARENT_SPEEDS, change,
                     "q_tuples:items_per_s:1.0")["claim"]["met"] is False
    # ties count for neither side
    doc = claim_doc(tmp_path, PARENT_SPEEDS, PARENT_SPEEDS, "q_tuples:items_per_s:1.0")
    assert doc["workloads"]["q_tuples"]["items_per_s"]["change_wins"] == 0
    assert doc["claim"]["met"] is False


def test_claim_on_a_lower_is_better_metric(tmp_path):
    # 25% more items/s is 20% less latency: a gain of 1.25 on item_p50_ms
    faster = [v * 1.25 for v in PARENT_SPEEDS]
    assert claim_doc(tmp_path, PARENT_SPEEDS, faster,
                     "q_tuples:item_p50_ms:1.2")["claim"]["met"] is True
    assert claim_doc(tmp_path, faster, PARENT_SPEEDS,
                     "q_tuples:item_p50_ms:1.2")["claim"]["met"] is False


def test_report_digest_mismatch_is_flagged(tmp_path):
    doc = claim_doc(tmp_path, PARENT_SPEEDS, PARENT_SPEEDS, "q_tuples:items_per_s:1.0",
                    traced_reports="different")
    w = doc["workloads"]["q_tuples"]
    assert w["reports_identical_seed_1"] is False
    assert w["reports_digest_seed_1"] == {"parent": "out", "change": "different"}
