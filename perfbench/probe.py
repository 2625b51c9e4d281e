"""What one item runs, and the set-up probe.

Run as a script, this is the set-up probe that `setup_s` times: a fresh
interpreter imports mkt.cli from the checkout and finishes one fixed warm-up
item, then exits 0. The warm-up items are small fixed documents rather than
seeded ones, so set-up time does not move with the seed.

    python3 perfbench/probe.py <workload>
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HILBERT_PLACES = ("inf", 2, 3, 5)

# the mkt commands one item runs, each fed the item's document on stdin
COMMANDS = {
    "ff_reciprocity": (["reciprocity", "-"],),
    "q_tuples": (["reduce", "-"],
                 ["jointdet", "-", "--spec", "rational-hilbert",
                  "--places", ",".join(str(p) for p in HILBERT_PLACES)]),
    "ff_tuples": (["reduce", "-"], ["jointdet", "-", "--spec", "finite-field-trivial"]),
}

_F9 = {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]}
WARMUP = {
    # {X + i, X + 1, X^2 - (1 + i)}; 1 + i generates F_9^*, so it is no square
    "ff_reciprocity": {"field": _F9, "symbols": [{"entries": [
        [[0, 1], [1, 0]], [[1, 0], [1, 0]], [[2, 2], [0, 0], [1, 0]]]}]},
    "q_tuples": {"field": {"kind": "Q"}, "matrices": [
        [[2, 1], [0, 2]], [[-3, "1/2"], [0, -3]]]},
    # the companion matrix of X^2 - (1 + i), and i times the identity
    "ff_tuples": {"field": _F9, "matrices": [
        [[[0, 0], [1, 1]], [[1, 0], [0, 0]]],
        [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]]},
}


class MissingProgram(Exception):
    """The checkout holds no mkt sources to measure."""


def import_cli():
    """The mkt.cli module of this checkout's src/, never from anywhere else."""
    if not (SRC / "mkt" / "cli.py").is_file():
        raise MissingProgram(f"no mkt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mkt.cli
    if Path(mkt.cli.__file__).resolve().parent != SRC / "mkt":
        raise MissingProgram(f"imported mkt from {mkt.cli.__file__}, not {SRC}")
    return mkt.cli


def run_command(cli, argv: list[str], text: str) -> tuple[int, str]:
    """cli.main(argv) in process with `text` as stdin; (exit code, stdout).

    main is looked up on the module at every call, so a traced run sees the
    wrapper that replaced it.
    """
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def warm_up(cli, workload: str) -> None:
    text = json.dumps(WARMUP[workload])
    for argv in COMMANDS[workload]:
        code, out = run_command(cli, argv, text)
        if code != 0:
            raise RuntimeError(f"warm-up {argv[0]} exited {code}: {out}")


if __name__ == "__main__":
    warm_up(import_cli(), sys.argv[1])
