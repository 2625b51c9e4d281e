"""The CLI's reports on two fixed corpora, byte for byte.

`golden_reports.json` holds `reduce` and `jointdet` (every spec that
applies) on tuples over Q, F_5, F_9, F_27 and F_81, singular and
non-commuting tuples, and malformed matrix entries.
`golden_symbol_reports.json` holds `canon`, `tame`, `transfer` and
`reciprocity` on symbols over Q, F_5, F_9, F_27, F_81 and k(X) (entries
with `num` and `den`, at finite and infinite places), and malformed
entries, coefficients, moduli and uniformizers. Each case has its exit code
and exact stdout; `tools/capture_golden.py` records them.
"""

import importlib.util
import json
import pathlib

import pytest

from mkt import cli

HERE = pathlib.Path(__file__).resolve().parent
CASES = json.loads((HERE / "golden_reports.json").read_text(encoding="utf-8"))
SYMBOL_CASES = json.loads((HERE / "golden_symbol_reports.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location(
    "capture_golden", HERE.parent / "tools" / "capture_golden.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_report_is_byte_identical(case):
    assert capture.run_case(cli.main, case) == (case["code"], case["stdout"])


def test_corpus_covers_every_field_and_outcome():
    fields = {json.dumps(c["doc"]["field"], sort_keys=True) for c in CASES}
    assert len(fields) == 5
    errors = {json.loads(c["stdout"]).get("error", {}).get("type") for c in CASES}
    assert errors == {None, "ParseError", "ArityMismatch", "DegenerateInput"}


@pytest.mark.parametrize("case", SYMBOL_CASES, ids=[c["id"] for c in SYMBOL_CASES])
def test_symbol_report_is_byte_identical(case):
    assert capture.run_case(cli.main, case) == (case["code"], case["stdout"])


def test_symbol_corpus_covers_every_command_field_and_outcome():
    assert {c["argv"][0] for c in SYMBOL_CASES} == {"canon", "tame", "transfer", "reciprocity"}
    # the tuple corpus's Q, F_5, F_9, F_27 and F_81 blocks, and more
    blocks = {json.dumps(c["doc"]["field"], sort_keys=True) for c in SYMBOL_CASES}
    assert blocks > {json.dumps(c["doc"]["field"], sort_keys=True) for c in CASES}
    fraction_entries = [c for c in SYMBOL_CASES if c["code"] == 0 and any(
        isinstance(e, dict) and "den" in e
        for t in c["doc"]["symbols"] for e in t["entries"])]
    assert {c["argv"][0] for c in fraction_entries} == {"tame", "reciprocity"}
    errors = {json.loads(c["stdout"]).get("error", {}).get("type") for c in SYMBOL_CASES}
    assert errors == {None, "ParseError", "ZeroEntry", "DivisionByZero", "DegenerateInput"}
