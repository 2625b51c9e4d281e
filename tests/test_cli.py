"""End-to-end runs of the mkt command line through main(argv)."""

import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mkt
from mkt import cli, errors
from mkt.errors import RecursionInvariantViolated
from mkt.jointdet import SPECS
from mkt.linalg import Matrix
from mkt.numutil import PROVEN_PRIME_BOUND, is_prime


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# weight-two documents over Q whose real sign is -1
REAL_DOCS = {
    "canon": {"field": {"kind": "Q"}, "symbols": [{"entries": ["-2", "-3"]}]},
    "reduce": {"field": {"kind": "Q"},
               "matrices": [[["-2", "0"], ["0", "1"]], [["-3", "0"], ["0", "1"]]]},
}


class TestCanon:
    def test_rational_pair(self, capsys, tmp_path):
        # [DERIVED] residues of {3, 5} at its two odd places
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "symbols": [{"coeff": 1, "entries": ["3", "5"]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 0
        assert out["class"] == {"l": 2, "field": "Q", "eps_inf": 1,
                                "tame": {"3": "2", "5": "3"}}

    def test_real_mode_flag(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "symbols": [{"coeff": 1, "entries": ["-2", "-3"]}],
        })
        code, out = run(capsys, ["canon", "--real", path])
        assert code == 0
        assert out["class"]["eps_inf"] == -1 and out["class"]["real"] is True

    def test_finite_field_pair_is_zero(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]},
            "symbols": [{"coeff": 1, "entries": [[1, 1], [2, 1]]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 0
        assert out["class"] == {"zero": True}

    def test_composite_p_that_fools_twelve_bases(self, capsys, tmp_path):
        # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the
        # twelve prime bases up to 37
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 318665857834031151167461},
            "symbols": [{"coeff": 1, "entries": ["2"]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    # "real" is true, false or absent; a truthy string or number is no flag
    @pytest.mark.parametrize("value", ["no", "false", 1, None],
                             ids=["no", "false-string", "one", "null"])
    @pytest.mark.parametrize("command", ["canon", "reduce"])
    def test_real_must_be_a_boolean(self, capsys, tmp_path, command, value):
        path = write_doc(tmp_path, "d.json", {**REAL_DOCS[command], "real": value})
        code, out = run(capsys, [command, path])
        assert code == 1
        assert out["error"] == {"type": "ParseError",
                                "message": '"real" must be true or false'}

    # either the flag or the document turns the real class on
    @pytest.mark.parametrize("command", ["canon", "reduce"])
    def test_real_flag_beats_document_false(self, capsys, tmp_path, command):
        path = write_doc(tmp_path, "d.json", {**REAL_DOCS[command], "real": False})
        code, out = run(capsys, [command, "--real", path])
        assert code == 0
        assert out["class"] == {"l": 2, "field": "Q", "eps_inf": -1, "real": True}

    def test_stdin_input(self, capsys, monkeypatch):
        doc = {"field": {"kind": "Q"},
               "symbols": [{"coeff": 1, "entries": ["-1"]}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, ["canon", "-"])
        assert code == 0
        assert out["class"] == {"l": 1, "field": "Q", "unit": "-1"}


class TestTame:
    def test_rational_prime_place(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"}, "place": 3,
            "symbols": [{"coeff": 1, "entries": ["3", "5"]}],
        })
        code, out = run(capsys, ["tame", path])
        assert code == 0
        assert out["place"] == 3
        # the uniformizer sits first, so the residue enters with a sign;
        # the class normalizes since 1/2 = 2 in F_3
        assert out["terms"] == [{"coeff": -1, "entries": [2]}]
        assert out["class"] == {"l": 1, "field": "F3", "unit": 2}

    def test_function_field_place(self, capsys, tmp_path):
        # residue at X of {X, 3} is the constant 3, negated by the reorder
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"}, "place": {"pi": ["0", "1"]},
            "symbols": [{"coeff": 1, "entries": [
                {"num": ["0", "1"], "den": ["1"]}, "3"]}],
        })
        code, out = run(capsys, ["tame", path])
        assert code == 0
        assert out["terms"] == [{"coeff": -1, "entries": ["3"]}]

    def test_infinite_place(self, capsys, tmp_path):
        # [DERIVED] the degree place on {X, X-1} carries {-1}
        x = {"num": ["0", "1"], "den": ["1"]}
        xm1 = {"num": ["-1", "1"], "den": ["1"]}
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"}, "place": "inf",
            "symbols": [{"coeff": 1, "entries": [x, xm1]}],
        })
        code, out = run(capsys, ["tame", path])
        assert code == 0
        assert out["place"] == "inf"
        assert out["terms"] == [{"coeff": -1, "entries": ["-1"]}]
        assert out["class"] == {"l": 1, "field": "Q", "unit": "-1"}

    def test_place_with_quadratic_residue_field(self, capsys, tmp_path):
        # [DERIVED] Milnor's boundary d_pi{pi, u} = -{u mod pi}, over Q(i)
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"}, "place": {"pi": [1, 0, 1]},
            "symbols": [{"entries": [[1, 0, 1], [0, 2]]}],
        })
        code, out = run(capsys, ["tame", path])
        assert code == 0
        assert out["terms"] == [{"coeff": -1, "entries": [["0", "2"]]}]
        assert out["class"] == {"l": 1, "field": "Q[x]/(X^2 + 1)",
                                "unit": ["0", "-1/2"]}

    def test_valuation_class(self, capsys, tmp_path):
        # [DERIVED] a weight-1 class at 3 is its valuation: 2 v_3(9) + v_3(5) = 4
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"}, "place": 3,
            "symbols": [{"coeff": 2, "entries": ["9"]}, {"coeff": 1, "entries": ["5"]}],
        })
        code, out = run(capsys, ["tame", path])
        assert code == 0
        assert out["class"] == {"field": "F3", "l": 0, "n": 4}


class TestReciprocity:
    def test_rational_function_pair(self, capsys, tmp_path):
        x = {"num": ["0", "1"], "den": ["1"]}
        xm1 = {"num": ["-1", "1"], "den": ["1"]}
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "symbols": [{"coeff": 1, "entries": [x, xm1]}],
        })
        code, out = run(capsys, ["reciprocity", path])
        assert code == 0
        assert out["total"]["zero"] is True
        nonzero = [r for r in out["places"] if "zero" not in r["class"]]
        assert len(nonzero) == 2

    def test_repeat_in_one_process_is_identical_and_starts_cold(
            self, capsys, tmp_path, monkeypatch):
        factor_module = sys.modules["mkt.factor"]
        path = write_doc(tmp_path, "d.json", F9_RECIPROCITY_DOC)
        memo_sizes = []
        command = cli._cmd_reciprocity

        def spy(args):
            memo_sizes.append(len(factor_module._FACTORED))
            return command(args)
        monkeypatch.setattr(cli, "_cmd_reciprocity", spy)
        outs = []
        for _ in range(2):
            assert cli.main(["reciprocity", path]) == 0
            outs.append(capsys.readouterr().out)
            assert factor_module._FACTORED
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["total"]["zero"] is True
        assert memo_sizes == [0, 0]

    def test_descriptors_held_across_main_are_the_ones_it_uses(
            self, capsys, tmp_path, monkeypatch):
        """A descriptor held across main() is the one the command reads its
        field block into, and each maker hands it out again afterwards."""
        fields_module = sys.modules["mkt.fields"]
        F3 = fields_module.prime_field(3)

        def made():
            F9 = fields_module.extension(F3, fields_module.Polynomial.from_ints(F3, [1, 0, 1]))
            return (fields_module.rationals(), fields_module.prime_field(3), F9,
                    fields_module.function_field(F9))

        held = made()
        parsed = []
        parse = cli._parse_field
        monkeypatch.setattr(cli, "_parse_field", lambda block: parsed.append(parse(block))
                            or parsed[-1])
        assert cli.main(["reciprocity", write_doc(tmp_path, "d.json", F9_RECIPROCITY_DOC)]) == 0
        capsys.readouterr()
        assert len(parsed) == 1 and parsed[0] is held[2]
        assert all(a is b for a, b in zip(made(), held))


F9_RECIPROCITY_DOC = {
    "field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]},
    "symbols": [{"coeff": 1, "entries": [[[1, 1], [0, 1], [1]], [[2], [1, 1], [0], [1]]]}],
}


class TestUnprovenPrimes:
    """is_prime is proven only below numutil.PROVEN_PRIME_BOUND (psi_13), so
    the CLI refuses every prime it reads at or above it: a field block's
    "p", a place in a document or in --places, and the prime of --q. psi_13
    itself passes is_prime, although it is composite. The largest prime
    below the bound is accepted on each route."""

    BELOW = 3317044064679887385961813

    def routes(self, p):
        """(argv, stdin document or None) per route that reads the prime p."""
        return [
            (["canon", "-"], {"field": {"kind": "Fq", "p": p},
                              "symbols": [{"coeff": 1, "entries": [2, 3]}]}),
            (["tame", "-"], {"field": {"kind": "Q"}, "place": p,
                             "symbols": [{"coeff": 1, "entries": [str(p), "3"]}]}),
            (["tame", "-"], {"field": {"kind": "Q"}, "place": str(p),
                             "symbols": [{"coeff": 1, "entries": ["2", "3"]}]}),
            (["jointdet", "-", "--spec", "rational-hilbert", "--places", f"inf,3,{p}"],
             {"field": {"kind": "Q"}, "matrices": [[["2"]], [["3"]]]}),
            (["check", "reciprocity", "--q", str(p), "--trials", "1", "--deg-max", "1"], None),
        ]

    def run_route(self, capsys, monkeypatch, argv, doc):
        if doc is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        return run(capsys, argv)

    @pytest.mark.parametrize("p", [PROVEN_PRIME_BOUND, 10 ** 30 + 57])
    def test_refused_at_and_above_the_bound(self, capsys, monkeypatch, p):
        assert is_prime(p)
        for argv, doc in self.routes(p):
            code, out = self.run_route(capsys, monkeypatch, argv, doc)
            assert code == 1 and out["error"]["type"] == "ParseError", argv
            assert f"{p} is not below {PROVEN_PRIME_BOUND}" in out["error"]["message"]

    def test_the_largest_prime_below_the_bound_is_accepted(self, capsys, monkeypatch):
        p = self.BELOW
        assert all(not is_prime(n)
                   for n in range(p + 1, PROVEN_PRIME_BOUND))
        for argv, doc in self.routes(p):
            code, out = self.run_route(capsys, monkeypatch, argv, doc)
            assert code == 0 and "error" not in out, argv


# per field block: the polynomial 1 and two numerators, low to high
OMITTED_DEN_FIELDS = {
    "F5": ({"kind": "Fq", "p": 5}, [1], [[1, 1], [2, 0, 1]]),
    "F9": ({"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]}, [[1]],
           [[[1, 1], [0, 1]], [[2], [1]]]),
    "Q": ({"kind": "Q"}, ["1"], [["1", "1"], ["2", "0", "1"]]),
}


class TestOmittedDen:
    @pytest.mark.parametrize("command", ["tame", "reciprocity"])
    @pytest.mark.parametrize("name", list(OMITTED_DEN_FIELDS))
    def test_omitted_den_is_one(self, capsys, tmp_path, name, command):
        """A rational function written without "den" reads as num / 1."""
        block, one, nums = OMITTED_DEN_FIELDS[name]
        reports = []
        for entries in ([{"num": n} for n in nums], [{"num": n, "den": one} for n in nums]):
            doc = {"field": block, "place": "inf", "symbols": [{"entries": entries}]}
            reports.append(run(capsys, [command, write_doc(tmp_path, "d.json", doc)]))
        assert reports[1][0] == 0
        assert reports[0] == reports[1]


class TestTransfer:
    def test_norm_of_generator_shift(self, capsys, tmp_path):
        # [DERIVED] the norm of g+1 in F_9 down to F_3 is 2
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]},
            "symbols": [{"coeff": 1, "entries": [[1, 1]]}],
        })
        code, out = run(capsys, ["transfer", path])
        assert code == 0
        assert out["base"] == "F3"
        assert out["terms"] == [{"coeff": 1, "entries": [2]}]
        assert out["class"] == {"l": 1, "field": "F3", "unit": 2}

    def test_requires_extension_field(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "symbols": [{"coeff": 1, "entries": ["2"]}],
        })
        code, out = run(capsys, ["transfer", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"


class TestReduce:
    def test_jordan_pair(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "matrices": [[["2", "1"], ["0", "2"]], [["3", "0"], ["0", "3"]]],
        })
        code, out = run(capsys, ["reduce", path])
        assert code == 0
        assert out["factors"] == [{"degree": 1, "multiplicity": 2,
                                   "scalars": ["2", "3"]}]
        assert out["terms"] == [{"coeff": 2, "entries": ["2", "3"]}]
        # 2{2, 3} has square residues everywhere and positive entries
        assert out["class"]["zero"] is True

    def test_singular_slot_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "matrices": [[["1", "1"], ["1", "1"]]],
        })
        code, out = run(capsys, ["reduce", path])
        assert code == 1
        assert out["error"]["type"] == "DegenerateInput"

    def test_non_commuting_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "matrices": [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]],
        })
        code, out = run(capsys, ["reduce", path])
        assert code == 1
        assert out["error"]["type"] == "DegenerateInput"

    def test_empty_tuple_is_neutral(self, capsys, tmp_path):
        # the 0 x 0 tuple is the neutral element of direct sum
        path = write_doc(tmp_path, "d.json", {"field": {"kind": "Q"}, "matrices": [[], []]})
        code, out = run(capsys, ["reduce", path])
        assert code == 0
        assert out["size"] == 0 and out["factors"] == [] and out["terms"] == []
        assert out["class"]["zero"] is True and out["class"]["tame"] == {}


class TestJointdet:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("places", [None, "inf,2"])
    def test_empty_tuple_never_raises(self, capsys, tmp_path, spec, places):
        """Every spec answers the 0 x 0 tuple or refuses it with a typed error."""
        path = write_doc(tmp_path, "d.json", {"field": {"kind": "Q"}, "matrices": [[], []]})
        argv = ["jointdet", "--spec", spec, path]
        code, out = run(capsys, argv + (["--places", places] if places else []))
        if code == 0:
            assert out["value"] in (1, {"l": 2, "field": "Q", "eps_inf": 1, "tame": {},
                                        "zero": True})
        else:
            assert code == 1 and issubclass(getattr(errors, out["error"]["type"]),
                                            errors.MktError)

    def test_rational_hilbert_value(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "matrices": [[["2"]], [["3"]]],
        })
        code, out = run(capsys, ["jointdet", "--spec", "rational-hilbert",
                                 "--places", "inf,3", path])
        assert code == 0
        assert out["value"] == -1
        assert out["spec"] == "rational-hilbert(3, inf)"

    @pytest.mark.parametrize("spec", [s for s in SPECS if s != "rational-hilbert"])
    @pytest.mark.parametrize("places", ["inf", "inf,3", ""])
    def test_places_need_rational_hilbert(self, capsys, tmp_path, spec, places):
        path = write_doc(tmp_path, "d.json", {"field": {"kind": "Q"},
                                              "matrices": [[["2"]], [["3"]]]})
        code, out = run(capsys, ["jointdet", "--spec", spec, "--places", places, path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    def test_places_refused_before_the_document_is_read(self, capsys, tmp_path):
        # the tuple does not commute, so reading it first would report that
        path = write_doc(tmp_path, "d.json", {"field": {"kind": "Q"}, "matrices": [
            [["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]})
        code, out = run(capsys, ["jointdet", "--spec", "universal", "--places", "inf", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"
        assert "--places" in out["error"]["message"]

    def test_rational_hilbert_does_not_factor_entries(self, tmp_path):
        # N = (10^18 + 3)(2 * 10^18 + 57) is a semiprime that Pollard rho
        # factors slowly; the local symbols need only N mod 8, 3 and 5. A
        # subprocess with a time bound, so that a slow factoring fails the
        # test instead of hanging the suite.
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "matrices": [[["2000000000000000063000000000000000171"]], [["3"]]],
        })
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(mkt.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "mkt.cli", "jointdet", "--spec", "rational-hilbert",
             "--places", "inf,2,3,5", path],
            capture_output=True, text=True, timeout=30, env=env)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        # N = 3 (mod 8) and N = 2 (mod 3): -1 at 2 and at 3, +1 at inf and 5
        assert out["value"] == 1
        assert out["spec"] == "rational-hilbert(2, 3, 5, inf)"

    def test_universal_default(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "matrices": [[["3"]], [["5"]]],
        })
        code, out = run(capsys, ["jointdet", path])
        assert code == 0
        assert out["value"] == {"l": 2, "field": "Q", "eps_inf": 1,
                                "tame": {"3": "2", "5": "3"}}

    def test_real_sign_on_finite_field_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 5, "deg": 1, "modulus": [0, 1]},
            "matrices": [[["2"]], [["3"]]],
        })
        code, out = run(capsys, ["jointdet", "--spec", "real-sign", path])
        assert code == 1
        assert out["error"]["type"] == "UnsupportedCombination"


F5_BLOCK = {"kind": "Fq", "p": 5}
F9_BLOCK = {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]}

# commuting tuples with a slot that is singular: the first, a later one, and
# one that vanishes only on an F_81 block (the first slot is the companion
# matrix of X^2 - (1 + i), irreducible over F_9, beside the scalar 2)
SINGULAR = {
    "first_q": ({"kind": "Q"}, [[["1", "1"], ["1", "1"]], [[2, 0], [0, 2]]]),
    "later_q": ({"kind": "Q"}, [[[2, 1], [0, 2]], [[3, 0], [0, 3]], [[0, 1], [0, 0]]]),
    "first_f5": (F5_BLOCK, [[[1, 2], [2, 4]], [[1, 0], [0, 1]]]),
    "later_f5": (F5_BLOCK, [[[2, 1], [0, 2]], [[5, 0], [0, 5]]]),
    "first_f9": (F9_BLOCK, [[[[1], [1]], [[1], [1]]], [[[1], []], [[], [1]]]]),
    "later_f9": (F9_BLOCK, [[[[0, 1], []], [[], [2]]], [[[1], []], [[], [0]]]]),
    "f81_block_f9": (F9_BLOCK, [[[[], [1, 1], []], [[1], [], []], [[], [], [2]]],
                                [[[], [], []], [[], [], []], [[], [], [1]]]]),
}


def applicable_commands(block):
    """reduce, and jointdet under every spec that applies to weight >= 2."""
    if block["kind"] == "Q":
        specs = [["universal"], ["real-sign"], ["rational-hilbert", "--places", "inf,2"]]
    else:
        specs = [["universal"], ["finite-field-trivial"]]
    return [["reduce"]] + [["jointdet", "--spec", *s] for s in specs]


class TestSingularSlots:
    """The CLI reads a tuple without a determinant per slot; the composition
    series refuses a slot that acts as 0 on some factor."""

    @pytest.mark.parametrize("case, argv", [(c, a) for c, (b, _) in SINGULAR.items()
                                            for a in applicable_commands(b)])
    def test_refused(self, capsys, tmp_path, case, argv):
        block, mats = SINGULAR[case]
        path = write_doc(tmp_path, "d.json", {"field": block, "matrices": mats})
        code, out = run(capsys, argv + [path])
        assert code == 1
        assert out["error"] == {"type": "DegenerateInput", "message": "singular slot"}

    # the series refuses a singular slot when it reaches its zero scalar, so a
    # refusal met before that is reported instead: a pair of slots that do
    # not commute, a spec or place that does not apply, a second extension
    # step over Q (the first slot is two blocks of X^2 + 1, the second acts
    # on Q(i)^2 as a root of X^2 - 3)
    @pytest.mark.parametrize("argv, block, mats, error", [
        (["reduce"], {"kind": "Q"}, [[[1, 1], [1, 1]], [[1, 0], [1, 1]]],
         ("DegenerateInput", "slots 0 and 1 do not commute")),
        (["jointdet", "--spec", "real-sign"], F5_BLOCK, [[[0]], [[1]]],
         ("UnsupportedCombination", "the sign determinant needs Q")),
        (["jointdet", "--spec", "rational-hilbert", "--places", "4"], {"kind": "Q"},
         [[[0]], [[1]]], ("ParseError", "not a place: 4")),
        (["reduce"], {"kind": "Q"},
         [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
          [[0, 0, 3, 0], [0, 0, 0, 3], [1, 0, 0, 0], [0, 1, 0, 0]], [[0] * 4] * 4],
         ("UnsupportedTower", "splitting this tuple needs a second extension step over Q")),
    ], ids=["non_commuting", "spec", "places", "second_step"])
    def test_earlier_refusal_is_reported(self, capsys, tmp_path, argv, block, mats, error):
        path = write_doc(tmp_path, "d.json", {"field": block, "matrices": mats})
        code, out = run(capsys, argv + [path])
        assert code == 1
        assert out["error"] == dict(zip(("type", "message"), error))


class TestEntriesIntoForms:
    """Matrices read straight into the kernel's form equal the matrices built
    from parsed elements, in their entries and in their internal form."""

    @staticmethod
    def entry(block, rng):
        if block["kind"] == "Q":
            return rng.choice([
                rng.randint(-20, 20), "+4", "0/3", 10 ** 30, -10 ** 30, str(rng.randint(-9, 9)),
                f"{rng.randint(-30, 30)}/{rng.randint(1, 12)}", f"+{rng.randint(0, 30)}/6"])
        if block.get("deg", 1) == 1:
            return rng.choice([rng.randint(-30, 30), 10 ** 30 + rng.randint(0, 4),
                               "+7", "-3", str(rng.randint(0, 99))])
        return [rng.choice([rng.randint(-10, 10), "+4", "-1"])
                for _ in range(rng.randint(0, block["deg"]))]

    @pytest.mark.parametrize("block", [
        {"kind": "Q"}, F5_BLOCK, F9_BLOCK,
        {"kind": "Fq", "p": 3, "deg": 4, "modulus": [2, 1, 0, 0, 1]}],
        ids=["Q", "F5", "F9", "F81"])
    def test_form_built_equals_element_built(self, block):
        rng = random.Random(28)
        field = cli._parse_field(block)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = [[self.entry(block, rng) for _ in range(n)] for _ in range(n)]
            got = cli._parse_matrices(field, [m]).matrices[0]
            want = Matrix(field, [[cli._parse_element(field, e) for e in row] for row in m])
            assert got._form() == want._form()
            assert got.rows == want.rows


# JSON values, biased towards entries that read: integers, the README's
# rational strings and short coefficient lists of them
_NUMBERS = st.integers(-40, 40) | st.from_regex(r"[+-]?[0-9]{1,3}(/[0-9]{1,2})?", fullmatch=True)
_ODDITIES = (st.integers() | st.none() | st.booleans() | st.floats(allow_nan=False)
             | st.text(max_size=4))
_JSON_VALUES = _NUMBERS | st.lists(_NUMBERS, max_size=5) | st.recursive(
    _NUMBERS | _ODDITIES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=8)


def _outcome(read):
    try:
        return read(), None
    except errors.MktError as e:
        return None, (type(e).__name__, str(e))


class TestOneReader:
    @pytest.mark.parametrize("block", [
        {"kind": "Q"}, F5_BLOCK, F9_BLOCK,
        {"kind": "Fq", "p": 3, "deg": 4, "modulus": [2, 1, 0, 0, 1]}],
        ids=["Q", "F5", "F9", "F81"])
    @settings(max_examples=150, deadline=None)
    @given(v=_JSON_VALUES)
    def test_element_and_entry_agree(self, block, v):
        """A value read as an element and as the entry of a 1x1 matrix is
        refused by both with one error, or accepted by both as one element."""
        field = cli._parse_field(block)
        element, element_error = _outcome(lambda: cli._parse_element(field, v))
        tup, entry_error = _outcome(lambda: cli._parse_matrices(field, [[[v]]]))
        assert element_error == entry_error
        if element_error is None:
            assert tup.matrices[0].rows == ((element,),)


class TestSuites:
    def test_reciprocity_suite_passes(self, capsys):
        code, out = run(capsys, ["check", "reciprocity", "--q", "5",
                                 "--l", "2", "--trials", "3", "--seed", "7"])
        assert code == 0
        assert out["passed"] == 3 and out["failures"] == []

    def test_reciprocity_suite_seed_identity(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert cli.main(["check", "reciprocity", "--q", "9", "--trials", "2",
                         "--seed", "5", "--out", a]) == 0
        assert cli.main(["check", "reciprocity", "--q", "9", "--trials", "2",
                         "--seed", "5", "--out", b]) == 0
        capsys.readouterr()
        ba = (tmp_path / "a.json").read_bytes()
        bb = (tmp_path / "b.json").read_bytes()
        assert ba == bb and ba.endswith(b"\n")

    def test_hilbert_suite_passes(self, capsys):
        code, out = run(capsys, ["check", "hilbert", "--trials", "5",
                                 "--seed", "3"])
        assert code == 0
        assert out["passed"] == 5 and out["failures"] == []

    def test_axioms_suite_passes(self, capsys):
        code, out = run(capsys, ["check", "axioms", "--trials", "3",
                                 "--seed", "2"])
        assert code == 0
        assert out["passed"] is True and out["violations"] == []

    @pytest.mark.parametrize("spec", [s for s in SPECS if s != "rational-hilbert"])
    @pytest.mark.parametrize("places", ["inf", "7,11", ""])
    def test_axioms_places_need_rational_hilbert(self, capsys, spec, places):
        # refused before --field is read: this block is not even JSON
        code, out = run(capsys, ["check", "axioms", "--spec", spec, "--l", "1",
                                 "--places", places, "--field", "{not json", "--trials", "1"])
        assert code == 1
        assert out["error"]["type"] == "ParseError"
        assert "--places" in out["error"]["message"]

    def test_axioms_default_places_are_inf_3_5(self, capsys):
        argv = ["check", "axioms", "--spec", "rational-hilbert", "--trials", "4", "--seed", "6"]
        assert cli.main(argv) == 0
        default = capsys.readouterr().out
        assert cli.main(argv + ["--places", "inf,3,5"]) == 0
        assert capsys.readouterr().out == default
        assert json.loads(default)["spec"] == "rational-hilbert(3, 5, inf)"

    def test_unknown_suite(self, capsys):
        code, out = run(capsys, ["check", "nonsense"])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("argv", [
        ["check", "hilbert", "--trials", "-3"],
        ["check", "axioms", "--trials", "-2"],
        ["check", "reciprocity", "--deg-max", "0"],
        ["check", "hilbert", "--bound", "0"],
        ["check", "reciprocity", "--l", "-1"],
    ])
    def test_out_of_range_parameter(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 1
        assert out["error"]["type"] == "ParseError"
        assert argv[2] in out["error"]["message"]

    @pytest.mark.parametrize("q, deg_max, l, code", [
        ("9", "1", "9", 1),   # F_9 has only 9 monic linear polynomials
        ("2", "1", "2", 1),   # F_2 has only X and X + 1
        ("2", "1", "1", 0),   # exactly the two that exist
    ])
    def test_reciprocity_suite_needs_enough_irreducibles(self, q, deg_max, l, code):
        # a subprocess with a time bound, so that an endless draw loop fails
        # the test instead of hanging the suite
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(mkt.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "mkt.cli", "check", "reciprocity", "--q", q,
             "--deg-max", deg_max, "--l", l, "--trials", "1"],
            capture_output=True, text=True, timeout=30, env=env)
        assert proc.returncode == code
        out = json.loads(proc.stdout)
        if code:
            assert out["error"]["type"] == "ParseError"
            assert "--l" in out["error"]["message"]
        else:
            assert out["passed"] == 1 and out["failures"] == []

    def test_reciprocity_q_is_no_prime_power(self, capsys):
        # (10^18 + 3)(2 * 10^18 + 57): deciding it needs no factoring. A
        # subprocess with a time bound first, so that a hang fails the test
        q = "2000000000000000063000000000000000171"
        argv = ["check", "reciprocity", "--q", q, "--trials", "1"]
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(mkt.__file__)))
        proc = subprocess.run([sys.executable, "-m", "mkt.cli", *argv],
                              capture_output=True, text=True, timeout=10, env=env)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "ParseError"
        start = time.perf_counter()
        code, out = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and out["error"]["type"] == "ParseError"
        assert "prime power" in out["error"]["message"]

    def test_zero_trials_pass_vacuously(self, capsys):
        code, out = run(capsys, ["check", "hilbert", "--trials", "0"])
        assert code == 0
        assert out["passed"] == 0 and out["failures"] == []

    @pytest.mark.parametrize("command", ["canon", "tame", "reciprocity",
                                         "transfer", "reduce", "jointdet"])
    def test_seed_only_for_suites(self, capsys, command):
        # only the randomized suites draw random numbers
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "-", "--seed", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["reciprocity", "-"], ["transfer", "-"],
                                      ["check", "reciprocity"]])
    def test_removed_route_flag_refused(self, capsys, argv):
        # each term's transfer route follows from the term alone
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--no-shortcuts"])
        assert exc.value.code == 2
        capsys.readouterr()


Q_BLOCK = {"kind": "Q"}
ONE_TERM = [{"entries": ["2"]}]

# entries each field block refuses; good is an accepted entry of the same block
BAD_ENTRIES = [
    (Q_BLOCK, 1, "1.5", "not a rational: '1.5'"),
    (Q_BLOCK, 1, "1e3", "not a rational: '1e3'"),
    (Q_BLOCK, 1, True, "not a rational: True"),
    (Q_BLOCK, 1, None, "not a rational: None"),
    (Q_BLOCK, 1, " 1", "not a rational: ' 1'"),
    (Q_BLOCK, 1, [1], "not a rational: [1]"),
    (F5_BLOCK, 1, "1/2", "not a prime-field element: '1/2'"),
    (F5_BLOCK, 1, [1], "not a prime-field element: [1]"),
    (F5_BLOCK, 1, True, "not a prime-field element: True"),
    (F9_BLOCK, [1], 5, "not an extension element: 5"),
    (F9_BLOCK, [1], [1, 2, 3],
     "bad element [1, 2, 3]: coefficient sequence longer than step degree 2"),
    (F9_BLOCK, [1], ["1", "x"], "not a prime-field element: 'x'"),
    (F9_BLOCK, [1], [True, 0], "not a prime-field element: True"),
    (F9_BLOCK, [1], [[1]], "not a prime-field element: [1]"),
]


class TestMalformedDocuments:
    """Each way a document can be malformed ends in a typed error, exit 1."""

    @pytest.mark.parametrize("command, doc, message", [
        ("canon", [], "top-level JSON value must be an object"),
        ("canon", {"field": 3, "symbols": ONE_TERM}, 'must be an object with a "kind"'),
        ("canon", {"field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 1]},
                   "symbols": ONE_TERM}, '"modulus" must list deg+1 coefficients'),
        ("canon", {"field": {"kind": "R"}, "symbols": ONE_TERM}, "unknown field kind 'R'"),
        ("canon", {"field": F9_BLOCK, "symbols": [{"entries": [[1, 2, 3]]}]},
         "longer than step degree 2"),
        ("tame", {"field": Q_BLOCK, "place": {"pi": 5}, "symbols": ONE_TERM},
         "polynomial must be a coefficient list"),
        ("canon", {"field": Q_BLOCK, "symbols": []}, '"symbols" must be a nonempty list'),
        ("canon", {"field": Q_BLOCK, "symbols": [{"coeff": 1}]},
         'each term needs an "entries" list'),
        ("canon", {"field": Q_BLOCK, "symbols": [{"coeff": "2", "entries": ["2"]}]},
         '"coeff" must be an integer'),
        ("canon", {"field": Q_BLOCK, "symbols": [{"entries": []}]},
         '"entries" must be a nonempty list'),
        ("reduce", {"field": Q_BLOCK, "matrices": []}, '"matrices" must be a nonempty list'),
        ("reduce", {"field": Q_BLOCK, "matrices": [[1, 2]]},
         "each matrix must be a row-major array of arrays"),
        ("tame", {"field": Q_BLOCK, "symbols": ONE_TERM}, 'tame needs a "place"'),
        ("tame", {"field": {"kind": "Fq", "p": 5}, "place": 3, "symbols": ONE_TERM},
         "prime places need the rational field block"),
    ], ids=["top_level_list", "field_not_object", "modulus_length", "unknown_kind",
            "extension_element_too_long", "pi_not_list", "no_terms", "term_without_entries",
            "coeff_string", "no_entries", "no_matrices", "matrix_not_rows",
            "tame_without_place", "prime_place_over_fp"])
    def test_parse_error(self, capsys, tmp_path, command, doc, message):
        code, out = run(capsys, [command, write_doc(tmp_path, "d.json", doc)])
        assert code == 1
        assert out["error"]["type"] == "ParseError"
        assert message in out["error"]["message"]

    # a bad matrix entry after a good one and before another bad one ("?"):
    # the first offending entry in row-major order is reported
    @pytest.mark.parametrize("block, good, entry, message", BAD_ENTRIES)
    def test_matrix_entry(self, capsys, tmp_path, block, good, entry, message):
        doc = {"field": block, "matrices": [[[good, entry], ["?", good]]]}
        code, out = run(capsys, ["reduce", write_doc(tmp_path, "d.json", doc)])
        assert code == 1
        assert out["error"] == {"type": "ParseError", "message": message}

    # the same entries, in the same order, as a symbol: one reader, one error
    @pytest.mark.parametrize("block, good, entry, message", BAD_ENTRIES)
    def test_symbol_entry(self, capsys, tmp_path, block, good, entry, message):
        doc = {"field": block, "symbols": [{"entries": [good, entry, "?", good]}]}
        code, out = run(capsys, ["canon", write_doc(tmp_path, "d.json", doc)])
        assert code == 1
        assert out["error"] == {"type": "ParseError", "message": message}

    # a ragged matrix is refused after its own entries, before the next matrix
    @pytest.mark.parametrize("mats, error", [
        ([[[1, 2], [3]], [["?"]]], {"type": "ArityMismatch", "message": "ragged rows"}),
        ([[[1, 2], ["?"]]], {"type": "ParseError", "message": "not a rational: '?'"}),
    ], ids=["ragged", "entry_before_ragged"])
    def test_ragged_matrix(self, capsys, tmp_path, mats, error):
        doc = {"field": Q_BLOCK, "matrices": mats}
        code, out = run(capsys, ["reduce", write_doc(tmp_path, "d.json", doc)])
        assert code == 1
        assert out["error"] == error


class TestErrorHandling:
    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, out = run(capsys, ["canon", str(p)])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    def test_deeply_nested_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
        code, out = run(capsys, ["canon", "-"])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    # a JSON integer past Python's digit limit, and an exponent string that
    # Fraction would expand to 200001 digits
    @pytest.mark.parametrize("entry", ["7" * 5000, '"1e200000"'],
                             ids=["digits", "exponent"])
    def test_integer_beyond_digit_limit(self, capsys, tmp_path, entry):
        p = tmp_path / "big.json"
        p.write_text('{"field": {"kind": "Q"}, "symbols": [{"entries": [%s]}]}'
                     % entry)
        code, out = run(capsys, ["canon", str(p)])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("entry,unit", [("-3/6", "-1/2"), ("+4", "4"), ("7/1", "7"),
                                            ("0010/4", "5/2")])
    def test_rational_strings(self, capsys, tmp_path, entry, unit):
        path = write_doc(tmp_path, "d.json", {"field": {"kind": "Q"},
                                              "symbols": [{"entries": [entry]}]})
        code, out = run(capsys, ["canon", path])
        assert code == 0
        assert out["class"] == {"l": 1, "field": "Q", "unit": unit}

    # a zero denominator, numerators and denominators past Python's digit
    # limit, and strings outside the grammar [+-]?[0-9]+(/[0-9]+)?
    @pytest.mark.parametrize("entry", ["1/0", "7" * 5000, "1/" + "7" * 5000, "2/-3",
                                       "1/2/3", "1.5"],
                             ids=["zero", "numerator", "denominator", "signed-den",
                                  "two-bars", "decimal"])
    def test_rational_string_refused(self, capsys, tmp_path, entry):
        path = write_doc(tmp_path, "d.json", {"field": {"kind": "Q"},
                                              "symbols": [{"entries": [entry]}]})
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    # strings that int() accepts but the integer grammar [+-]?[0-9]+ does not
    @pytest.mark.parametrize("entry", ["1_0", " 3 ", "0x3"],
                             ids=["underscore", "spaces", "hex"])
    def test_prime_field_string_outside_integer_grammar(self, capsys, tmp_path, entry):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 7},
            "symbols": [{"entries": [entry]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    # str.isdigit() takes a superscript two, which int() then refuses, and
    # an Arabic-Indic three, which int() reads as 3
    @pytest.mark.parametrize("places", ["\u00b2", "\u0663", "inf,\u0663", "4"])
    def test_place_outside_integer_grammar(self, capsys, tmp_path, places):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"}, "matrices": [[["2"]], [["3"]]]})
        code, out = run(capsys, ["jointdet", "--spec", "rational-hilbert",
                                 "--places", places, path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("entry,unit", [("3", 3), ("+10", 3), ("-4", 3), (3, 3)])
    def test_prime_field_integer_strings(self, capsys, tmp_path, entry, unit):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 7},
            "symbols": [{"entries": [entry]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 0
        assert out["class"] == {"l": 1, "field": "F7", "unit": unit}

    @pytest.mark.parametrize("block", ["[" * 100000, '{"kind": "Fq", "p": %s}' % ("7" * 5000),
                                       "{not json"])
    def test_bad_field_flag(self, capsys, block):
        code, out = run(capsys, ["check", "axioms", "--field", block, "--trials", "1"])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    # an F_9 element is a coefficient list over F_3, never a bare integer:
    # a symbol entry, and a tame place's uniformizer coefficient
    @pytest.mark.parametrize("command,doc", [
        ("canon", {"symbols": [{"entries": [2]}]}),
        ("tame", {"place": {"pi": [1]},
                  "symbols": [{"entries": [{"num": [[0, 1]], "den": [[1]]}]}]}),
    ], ids=["entry", "place"])
    def test_bare_integer_as_extension_element(self, capsys, tmp_path, command, doc):
        f9 = {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]}
        path = write_doc(tmp_path, "d.json", {"field": f9, **doc})
        code, out = run(capsys, [command, path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"
        assert out["error"]["message"].startswith("not an extension element")

    # JSON true is a Python int, but neither a prime nor a degree
    @pytest.mark.parametrize("block", [{"kind": "Fq", "p": 3, "deg": True},
                                       {"kind": "Fq", "p": True}],
                             ids=["deg", "p"])
    def test_boolean_field_parameters(self, capsys, tmp_path, block):
        path = write_doc(tmp_path, "d.json", {
            "field": block, "symbols": [{"entries": [2]}]})
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    def test_missing_file(self, capsys, tmp_path):
        code, out = run(capsys, ["canon", str(tmp_path / "absent.json")])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    def test_zero_entry(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "symbols": [{"coeff": 1, "entries": ["0", "3"]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ZeroEntry"

    def test_reducible_modulus(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": [2, 0, 1]},
            "symbols": [{"coeff": 1, "entries": [[1, 1]]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    # the monic quadratics over F_3 other than X^2 + 1, X^2 + X + 2, X^2 + 2X + 2
    @pytest.mark.parametrize("modulus", [[0, 0, 1], [0, 1, 1], [0, 2, 1], [1, 1, 1],
                                         [1, 2, 1], [2, 0, 1]])
    def test_every_reducible_f9_modulus(self, capsys, tmp_path, modulus):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": modulus},
            "symbols": [{"coeff": 1, "entries": [[1, 1]]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    # a zero listed as the leading coefficient leaves a linear modulus, which
    # would make the field F_3, not F_9
    @pytest.mark.parametrize("modulus", [[1, 1, 0], [2, 1, 0]])
    @pytest.mark.parametrize("command", ["canon", "reduce"])
    def test_modulus_below_deg(self, capsys, tmp_path, modulus, command):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": modulus},
            "symbols": [{"coeff": 1, "entries": [[2]]}],
            "matrices": [[[[2]]]],
        })
        code, out = run(capsys, [command, path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"
        assert "degree 2" in out["error"]["message"]

    @pytest.mark.parametrize("p", [1, 4, 9, -3])
    def test_non_prime_characteristic(self, capsys, tmp_path, p):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": p},
            "symbols": [{"coeff": 1, "entries": [1]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("modulus", [["x", 0, 1], [1.5, 0, 1], [1.0, 0, 1],
                                         [True, 0, 1]])
    def test_malformed_modulus_coefficient(self, capsys, tmp_path, modulus):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": modulus},
            "symbols": [{"coeff": 1, "entries": [[1, 1]]}],
        })
        code, out = run(capsys, ["canon", path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"

    def test_invariant_violation_maps_to_two(self, capsys, monkeypatch):
        def boom(args):
            raise RecursionInvariantViolated("forced")
        monkeypatch.setitem(cli._SUITES, "boom", boom)
        code, out = run(capsys, ["check", "boom"])
        assert code == 2
        assert out["error"]["type"] == "RecursionInvariantViolated"

    def test_out_file_leaves_stdout_empty(self, capsys, tmp_path):
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Q"},
            "symbols": [{"coeff": 1, "entries": ["2"]}],
        })
        dest = tmp_path / "report.json"
        code = cli.main(["canon", "--out", str(dest), path])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(dest.read_text())
        assert report["class"] == {"l": 1, "field": "Q", "unit": "2"}

    # both a report and an error report must reach stdout when --out is unusable
    @pytest.mark.parametrize("doc", [{"field": {"kind": "Q"}, "symbols": [{"entries": ["2"]}]},
                                     {"field": {"kind": "Q"}, "symbols": [{"entries": ["0"]}]}],
                             ids=["report", "error"])
    def test_unwritable_out_path(self, capsys, tmp_path, doc):
        path = write_doc(tmp_path, "d.json", doc)
        code, out = run(capsys, ["canon", "--out", str(tmp_path / "no" / "x.json"), path])
        assert code == 1
        assert out["error"]["type"] == "ParseError"
        assert "cannot write" in out["error"]["message"]
