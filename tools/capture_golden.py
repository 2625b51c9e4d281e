"""Record the reports of the golden CLI corpus.

    PYTHONPATH=src python3 tools/capture_golden.py [tests/golden_reports.json]

The file holds a list of cases, each an `id`, an `argv` for `mkt` whose
input is "-", and the JSON `doc` fed on stdin. This script runs every case
through `mkt.cli.main` in process and writes back each case's exit `code`
and exact `stdout`; `tests/test_golden.py` then holds the program to them
byte for byte. Run it on the tree whose reports are the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "tests" / "golden_reports.json"


def run_case(main, case: dict) -> tuple[int, str]:
    """(exit code, stdout) of main on the case's argv, its doc on stdin."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(case["doc"]))
    try:
        with contextlib.redirect_stdout(out):
            code = main(case["argv"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = Path(args[0]) if args else DEFAULT
    from mkt.cli import main as mkt_main

    cases = json.loads(path.read_text(encoding="utf-8"))
    for case in cases:
        case["code"], case["stdout"] = run_case(mkt_main, case)
    path.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"{len(cases)} cases written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
