"""End-to-end runs of the mkt command line through main(argv)."""

import gc
import io
import json
import os
import subprocess
import sys

import pytest

import mkt
from mkt import cli, errors
from mkt.errors import RecursionInvariantViolated
from mkt.jointdet import SPECS


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


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
        fields_module = sys.modules["mkt.fields"]
        path = write_doc(tmp_path, "d.json", {
            "field": {"kind": "Fq", "p": 3, "deg": 2, "modulus": [1, 0, 1]},
            "symbols": [{"coeff": 1, "entries": [[[1, 1], [0, 1], [1]],
                                                  [[2], [1, 1], [0], [1]]]}],
        })

        def tabled_f9s():
            gc.collect()
            return [o for o in gc.get_objects()
                    if isinstance(o, fields_module.FieldDescriptor)
                    and o._table is not None and o.order() == 9]

        # descriptors held by other tests are not this test's concern
        before = {id(f) for f in tabled_f9s()}
        cache_sizes = []
        command = cli._cmd_reciprocity

        def spy(args):
            cache_sizes.append((len(factor_module._FACTORED),
                                len(factor_module._IRREDUCIBLE),
                                len(fields_module._EXTENSIONS),
                                len(fields_module._FUNCTION_FIELDS)))
            return command(args)
        monkeypatch.setattr(cli, "_cmd_reciprocity", spy)
        outs = []
        for _ in range(2):
            assert cli.main(["reciprocity", path]) == 0
            outs.append(capsys.readouterr().out)
            assert factor_module._FACTORED
            assert fields_module._EXTENSIONS and fields_module._FUNCTION_FIELDS
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["total"]["zero"] is True
        assert cache_sizes == [(0, 0, 0, 0)] * 2
        # each command built its own F_9 and table; only the last one's lives on
        alive = [f for f in tabled_f9s() if id(f) not in before]
        assert len(alive) == 1
        assert any(alive[0] is f for f in fields_module._EXTENSIONS.values())


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
