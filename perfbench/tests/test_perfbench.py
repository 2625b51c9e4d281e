"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

CLI = probe.import_cli()

COUNTS = ("factor.irreducible_calls", "factor.repeat_frac", "transfer.depth_max",
          "commuting.tuple_builds", "linalg.minpoly_calls", "fields.elements")


def test_sieve_finds_every_monic_irreducible_over_f9():
    # Gauss's count (1/d) sum_{e|d} mu(d/e) 9^e for d = 1..4
    assert {d: len(fs) for d, fs in gen.monic_irreducibles(4).items()} == \
        {1: 9, 2: 36, 3: 240, 4: 1620}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    a, b = gen.Stream(workload, 7), gen.Stream(workload, 7)
    for n in (0, 5, 13, 2, 30):
        assert a.item(n) == b.item(n)
    assert gen.inputs_digest(workload, 7, 14) == gen.inputs_digest(workload, 7, 14)
    assert gen.inputs_digest(workload, 7, 14) != gen.inputs_digest(workload, 8, 14)


def _primes_of(n: int) -> set[int]:
    out, p = set(), 2
    n = abs(n)
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


def test_oracle_hilbert_symbol_obeys_the_product_formula():
    rng = random.Random(1)
    for _ in range(300):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 400), rng.randint(1, 400))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 400), rng.randint(1, 400))
        places = {2}
        for x in (a, b):
            places |= _primes_of(x.numerator) | _primes_of(x.denominator)
        prod = oracles.hilbert(a, b, "inf")
        for p in places:
            prod *= oracles.hilbert(a, b, p)
        assert prod == 1, (a, b)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_counts_repeat_and_wrappers_are_restored(workload):
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if n == "mkt" or n.startswith("mkt.")}
    classes = [sys.modules["mkt.fields"].FieldElement, sys.modules["mkt.linalg"].Matrix,
               sys.modules["mkt.commuting"].MatrixTuple]
    before = [dict(vars(c)) for c in classes]
    first = run.traced(CLI, workload, gen.Stream(workload, 3), 2)
    second = run.traced(CLI, workload, gen.Stream(workload, 3), 2)
    for r, metrics, _ in (first, second):
        assert r.failed == 0
        assert metrics["cli.calls"][0] == 2 * len(probe.COMMANDS[workload])
    for name in first[1]:
        if name.endswith(".calls") or name in COUNTS:
            assert first[1][name] == second[1][name], name
    assert first[0].digest.hexdigest() == second[0].digest.hexdigest()
    assert {n: dict(vars(sys.modules[n])) for n in mods} == mods
    assert [dict(vars(c)) for c in classes] == before


def _corrupt(workload):
    """A cli stand-in whose reports carry one planted error."""
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = CLI.main(argv)
        report = json.loads(buf.getvalue())
        if argv[0] == "jointdet" and workload == "q_tuples":
            report["value"] = -report["value"]
        elif argv[0] == "reduce" and workload == "ff_tuples":
            report["factors"] = report["factors"][1:]
        elif argv[0] == "reciprocity":
            report["places"] = report["places"][1:]
        sys.stdout.write(json.dumps(report))
        return code
    return types.SimpleNamespace(main=main)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_corrupted_report_counts_as_a_failure(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    r, metrics = run.measure(_corrupt(workload), workload, gen.Stream(workload, 3), 0)
    assert (len(r.latencies), r.failed) == (1, 1)
    assert metrics["ok_frac"][0] == 0


def test_compare_refuses_mixed_backends():
    rec = {"info": {"backend": "pure", "workload": "q_tuples", "seed": 1,
                    "inputs_digest_items": 60, "inputs_digest": "x"},
           "result": {"metrics": {}}}
    other = json.loads(json.dumps(rec))
    assert compare.refusal([rec], [other]) is None
    other["info"]["backend"] = "compiled"
    assert "backends" in compare.refusal([rec], [other])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "q_tuples",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
