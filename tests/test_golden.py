"""The CLI's reports on two fixed corpora, byte for byte.

`golden_reports.json` holds `reduce` and `jointdet` (every spec that
applies) on tuples over Q, F_5, F_9, F_27 and F_81, singular and
non-commuting tuples, and malformed matrix entries.
`golden_symbol_reports.json` holds `canon`, `tame`, `transfer` and
`reciprocity` on symbols over Q, F_2, F_5, F_9, F_27, F_81 and k(X)
(entries with `num` and `den`, at finite and infinite places), and
malformed entries, coefficients, moduli, uniformizers and primes. Each case
has its exit code and exact stdout; `tools/capture_golden.py` records them.
The `q_trager` tuple reaches Trager's factoring over Q(i), and
`reciprocity_f2_trace` the characteristic-2 trace split.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import mkt
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


# runs every case of the corpora named on its command line, last case first,
# and prints the ids whose exit code or stdout differ from the pinned ones
REVERSED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("capture_golden", sys.argv[1])
capture = importlib.util.module_from_spec(spec)
spec.loader.exec_module(capture)
from mkt import cli
cases = [c for path in sys.argv[2:] for c in json.loads(open(path, encoding="utf-8").read())]
print(json.dumps([c["id"] for c in reversed(cases)
                  if capture.run_case(cli.main, c) != (c["code"], c["stdout"])]))
"""


def test_no_report_depends_on_process_state():
    """Both corpora in one fresh interpreter, in reverse order, under
    PYTHONHASHSEED=1 and with nothing reset between cases beyond what main
    does: every report is still the pinned one. Descriptors live on from
    case to case, and their hashes are addresses."""
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(mkt.__file__)))
    run = subprocess.run([sys.executable, "-c", REVERSED_RUN,
                          str(HERE.parent / "tools" / "capture_golden.py"),
                          str(HERE / "golden_reports.json"),
                          str(HERE / "golden_symbol_reports.json")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []
