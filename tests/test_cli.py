import hashlib
import json
import random
import re

import pytest

from awarekit.cli import main

from conftest import MUSEUM, PROOFS

MUSEUM_PATH = str(MUSEUM)
DEEP = "~" * 1000 + "(p -> p)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_true_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", MUSEUM_PATH, "w1", "a", "R(police & near)")
        assert code == 0 and out.strip() == "true"

    def test_false_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", MUSEUM_PATH, "w1", "a", "R(weride & near)")
        assert code == 1 and out.strip() == "false"

    def test_absent_agent_exits_two(self, capsys):
        code, _, err = run(capsys, "check", MUSEUM_PATH, "w2", "b", "weride")
        assert code == 2 and "not present" in err

    def test_unknown_world_exits_two(self, capsys):
        code, _, err = run(capsys, "check", MUSEUM_PATH, "w9", "a", "weride")
        assert code == 2

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "check", MUSEUM_PATH, "w1", "a", "K p ->")
        assert code == 2 and "syntax error" in err

    def test_malformed_model_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.model.json"
        bad.write_text(
            '{"worlds": ["w"], "agents": ["a"], "presence": [["a", "w"]],'
            ' "indist": {}, "valuation": {"p": [["a", "w"]]}}'
        )
        code, _, err = run(capsys, "check", str(bad), "w", "a", "p")
        assert code == 2 and "partition-missing" in err

    @pytest.mark.parametrize("formula", ["PHI", "true | PHI"])
    def test_schema_exits_two(self, capsys, formula):
        code, out, err = run(capsys, "check", MUSEUM_PATH, "w1", "a", formula)
        assert code == 2 and out == ""
        assert err == "error: cannot evaluate a schema; metavariable PHI is unbound\n"

    def test_explain(self, capsys):
        code, out, _ = run(
            capsys, "check", MUSEUM_PATH, "w1", "a", "R(weride & near)", "--explain"
        )
        assert code == 1
        assert "candidate b: absent from w2" in out

    def test_json_twin(self, capsys):
        code, out, _ = run(
            capsys, "check", MUSEUM_PATH, "w1", "a", "D(weride & near)", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "holds": True,
            "world": "w1",
            "agent": "a",
            "formula": "D (weride & near)",
        }


class TestValid:
    def test_valid_formula(self, capsys):
        code, out, _ = run(
            capsys, "valid", "K p -> p", "--max-worlds", "2", "--max-agents", "2"
        )
        assert code == 0
        assert out.strip() == "valid up to bounds (194 models)"

    def test_countermodel_feeds_back_into_check(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "valid", "R p -> K R p", "--max-worlds", "3", "--max-agents", "3"
        )
        assert code == 1
        header, _, rest = out.partition("\n")
        assert header.startswith("countermodel")
        model_path = tmp_path / "cm.model.json"
        model_path.write_text(rest[rest.index("{") :])
        world, agent = re.search(r"world (\w+), agent (\w+)", header).groups()
        code, out, _ = run(capsys, "check", str(model_path), world, agent, "R p -> K R p")
        assert code == 1 and out.strip() == "false"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "valid", "K p ->")
        assert code == 2

    def test_empty_props_exits_two(self, capsys):
        code, out, err = run(capsys, "valid", "p", "--props", "")
        assert (code, out, err) == (2, "", "error: invalid proposition name ''\n")

    def test_metavariable_prop_exits_two(self, capsys):
        code, out, err = run(capsys, "valid", "PHI -> PHI", "--props", "PHI")
        assert (code, out, err) == (2, "", "error: invalid proposition name 'PHI'\n")

    def test_json_twin(self, capsys):
        code, out, _ = run(
            capsys,
            "valid",
            "p -> R p",
            "--max-worlds",
            "2",
            "--max-agents",
            "2",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "valid-up-to-bounds"
        assert doc["models_checked"] == 194

    def test_countermodel_json(self, capsys):
        code, out, _ = run(
            capsys, "valid", "D p -> R p", "--max-worlds", "2", "--max-agents", "2", "--json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "countermodel"
        assert set(doc["model"]) == {"worlds", "agents", "presence", "indist", "valuation"}

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "cm.dot"
        code, _, _ = run(
            capsys,
            "valid",
            "D p -> R p",
            "--max-worlds",
            "2",
            "--max-agents",
            "2",
            "--dot",
            str(dot),
        )
        assert code == 1
        assert dot.read_text().startswith("graph model {")

    def test_byte_identical_reruns(self, capsys):
        args = ("valid", "D p -> R p", "--max-worlds", "3", "--max-agents", "3", "--json")
        assert run(capsys, *args) == run(capsys, *args)

    @pytest.mark.parametrize("flag", ["--max-worlds", "--max-agents"])
    def test_bound_past_the_size_limit(self, capsys, flag):
        # the (1,1) countermodel, not an OverflowError from sizing the bound
        argv = ["valid", "K p", "--max-worlds", "1", "--max-agents", "1"]
        code, out, err = run(capsys, *argv, flag, "99999999999999999999")
        assert (code, out, err) == (1, run(capsys, *argv)[1], "")
        assert out.startswith("countermodel (falsified at world w0, agent a0):")

    def test_prune_keeps_verdict(self, capsys):
        code, out, _ = run(
            capsys, "valid", "K p -> p", "--max-worlds", "2", "--max-agents", "2", "--prune"
        )
        assert code == 0 and out.startswith("valid up to bounds")


def _axiom_instances(count):
    """Instances of the ten non-tautology axioms over p, drawn as the scan
    benchmark draws them: each metavariable a parenthesised random
    formula of one or two connectives."""
    schemas = [
        "K PHI -> PHI",
        "~K PHI -> K ~K PHI",
        "K (PHI -> PSI) -> (K PHI -> K PSI)",
        "PHI -> R PHI",
        "K PHI -> D PHI",
        "D PHI -> K D PHI",
        "~R false",
        "~D false",
        "R (PHI | PSI) -> R PHI | R PSI",
        "D (R PHI | D PHI) -> D PHI",
    ]
    unary = {"not": "~", "K": "K ", "R": "R ", "D": "D "}
    binary = {"implies": "->", "and": "&", "or": "|"}
    kinds = ("atom", "false", *unary, *binary)
    rng = random.Random("golden-axioms")

    def draw(depth):
        kind = rng.choice(kinds[:2] if depth <= 0 else kinds)
        if kind in ("atom", "false"):
            return "p" if kind == "atom" else "false"
        if kind in unary:
            return unary[kind] + draw(depth - 1)
        return f"({draw(depth - 1)} {binary[kind]} {draw(depth - 1)})"

    out = []
    for _ in range(count):
        schema = rng.choice(schemas)
        subst = {mv: f"({draw(rng.choice((1, 2)))})" for mv in ("PHI", "PSI")}
        out.append(re.sub(r"\b(PHI|PSI)\b", lambda m: subst[m.group(1)], schema))
    return out


class TestValidGolden:
    """valid --json bytes pinned by digest: a change to the search may make
    it faster, never change a verdict, a witness, a count or a byte."""

    # refuted at (3,3) over p; the last six have their witnesses in
    # (2,2) and (3,2) shapes, past skeletons of several presence masks
    REFUTED = [
        "(K false | (K R p -> ((p | false) & ~false)))",
        "(R ~~p -> p)",
        "(K (p -> false) | p)",
        "(K R (p -> false) | ~R ~p)",
        "R (((p | false) -> K p) | D (false | false))",
        "(R D p -> p)",
        "(p -> D R D p)",
        "(K R (false -> p) & (p | D ~p))",
        "(D ((false & false) | D p) -> K (K p | D false))",
        "(((false | p) | K false) -> R K p)",
        "D ((p -> false) | D p)",
        "R ((p -> false) | K p)",
        "((R p | D K false) -> K ~~p)",
        "~(D ~p & p)",
        "(((~p & R p) -> K (p & false)) | R K K p)",
        "(R p -> R K D p)",
        "(K (D p & ~false) -> R p)",
        "K ((R p -> (false & p)) | K p)",
        "(p | (D R p -> false))",
        "((R p -> (K p | R false)) & ((D p & p) -> R (false | p)))",
        "(R D p -> (p | p))",
        "((R p -> (p -> false)) | (~false & D p))",
        "(~~p -> D K p)",
        "(K D p -> K R p)",
        "R p -> K R p",
        "D p -> R p",
        "R K p -> K R p",
        "~D ~K p -> ~R ~D p",
        "K ~R p -> ~D K p",
        "~R ~R p -> ~D ~R p",
    ]
    DIGESTS = {
        ("3", False): "92c9df3aafbb93462fec4ef3fe3cdd280c1705fa853c9c93ddc036e936d8ec24",
        ("3", True): "8ea6c0d44288e09ea41ec75b13cd08ac4d2993087d30061b509ca6d9b34b6a0b",
        ("4", False): "aff9fa70dbe8ebac30e134357a00b290ef7533fd04af737edd5502e2524de28f",
        ("4", True): "541c7f0aceffed859f4ffbf6d220108e478d036821763033846a997395297001",
    }

    @pytest.mark.parametrize("prune", [False, True], ids=["plain", "pruned"])
    @pytest.mark.parametrize("worlds", ["3", "4"])
    def test_digest_of_json_output(self, capsys, worlds, prune):
        digest = hashlib.sha256()
        argv = ["--max-worlds", worlds, "--max-agents", "3", "--props", "p", "--json"] + ["--prune"] * prune
        for want, texts in ((0, _axiom_instances(30)), (1, self.REFUTED)):
            for text in texts:
                code, out, err = run(capsys, "valid", text, *argv)
                assert (code, err) == (want, ""), text
                digest.update(out.encode())
        assert digest.hexdigest() == self.DIGESTS[worlds, prune]


class TestProve:
    def test_shipped_proofs(self, capsys):
        code, out, _ = run(capsys, "prove", str(PROOFS / "positive_introspection.proof"))
        assert code == 0 and out.strip() == "K p -> K K p"
        code, out, _ = run(capsys, "prove", str(PROOFS / "lemma_a_2.proof"))
        assert code == 0

    def test_nec_in_from_mode_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("from p\n1: p by hyp 1\n2: K p by nec 1\n")
        code, out, _ = run(capsys, "prove", str(bad))
        assert code == 1
        assert "nec" in out and "line 2" in out

    def test_unparseable_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("this is not a proof\n")
        code, _, err = run(capsys, "prove", str(bad))
        assert code == 2

    @pytest.mark.parametrize("header", ["theoremfoo", "theorems  my thm"])
    def test_header_keyword_without_whitespace_exits_two(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.proof"
        bad.write_text(f"{header}\n1: p -> p by taut\n")
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "prove", str(bad), *extra)
            assert (code, out) == (2, "")
            assert err == "error: proof file line 1: expected a 'theorem <name>' or 'from ...' header\n"

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, "prove", "/no/such/file.proof")
        assert code == 2

    def test_taut_over_too_many_variables_exits_one(self, tmp_path, capsys):
        proof = tmp_path / "big.proof"
        big = " -> ".join(f"p{i}" for i in range(21)) + " -> p0"
        proof.write_text(f"theorem big\n1: {big} by taut\n")
        reason = "boolean abstraction has 21 variables; at most 20 are supported"
        code, out, err = run(capsys, "prove", str(proof))
        assert (code, out, err) == (1, f"line 1: taut: {reason}\n", "")
        code, out, err = run(capsys, "prove", str(proof), "--json")
        assert code == 1 and err == ""
        assert json.loads(out) == {"ok": False, "line": 1, "rule": "taut", "reason": reason}

    def test_json_twin(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("from p\n1: p by hyp 1\n2: K p by nec 1\n")
        code, out, _ = run(capsys, "prove", str(bad), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["line"] == 2 and doc["rule"] == "nec"


class TestFuzz:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "20", "--seed", "42")
        assert code == 0
        assert "violations: 0" in out

    def test_zero_trials_exits_two(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_no_instances_exits_two(self, capsys, instances):
        code, out, err = run(capsys, "fuzz", "--trials", "2", "--instances", instances)
        assert (code, out, err) == (2, "", "error: --instances must be at least 1\n")

    @pytest.mark.parametrize("props", ["PHI", "p,PSI2"])
    def test_metavariable_prop_exits_two(self, capsys, props):
        name = props.split(",")[-1]
        code, out, err = run(capsys, "fuzz", "--trials", "2", "--props", props)
        assert (code, out, err) == (2, "", f"error: invalid proposition name {name!r}\n")

    def test_negative_pool_depth_exits_two(self, capsys):
        code, out, err = run(capsys, "fuzz", "--trials", "2", "--pool-depth", "-1")
        assert (code, out, err) == (2, "", "error: --pool-depth must be at least 0\n")

    @pytest.mark.parametrize(
        "bound", [["--max-worlds", "100000000000", "--max-agents", "1"], ["--max-agents", "257"]]
    )
    def test_bounds_past_the_random_model_cap_exit_two(self, capsys, bound):
        code, out, err = run(capsys, "fuzz", "--trials", "1", *bound)
        assert (code, out) == (2, "")
        assert err.startswith("error: random models have at most 256 worlds and 256 agents")

    def test_byte_identical_reruns(self, capsys):
        a = run(capsys, "fuzz", "--trials", "15", "--seed", "9", "--json")
        b = run(capsys, "fuzz", "--trials", "15", "--seed", "9", "--json")
        assert a == b
        doc = json.loads(a[1])
        assert doc["trials"] == 15 and doc["violations"] == []


class TestLint:
    def test_clean_model(self, capsys):
        code, out, _ = run(capsys, "lint", MUSEUM_PATH)
        assert code == 0 and out.strip() == "ok"

    def test_violations_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.model.json"
        bad.write_text(
            '{"worlds": ["w"], "agents": ["a"], "presence": [], "indist": {},'
            ' "valuation": {"p": [["a", "w"]]}}'
        )
        code, out, _ = run(capsys, "lint", str(bad))
        assert code == 1 and "valuation-outside-presence" in out

    def test_metavariable_proposition_is_a_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.model.json"
        bad.write_text(
            '{"worlds": ["w"], "agents": ["a"], "presence": [["a", "w"]],'
            ' "indist": {"a": [["w"]]}, "valuation": {"PHI": [["a", "w"]]}}'
        )
        code, out, _ = run(capsys, "lint", str(bad))
        assert code == 1 and "proposition-name: invalid proposition name 'PHI'" in out
        code, out, err = run(capsys, "check", str(bad), "w", "a", "true")
        assert code == 2 and out == "" and "invalid proposition name 'PHI'" in err

    @pytest.mark.parametrize("command", [["lint"], ["check", "w", "a", "p"]], ids=["lint", "check"])
    def test_deeply_nested_model_file_exits_two(self, tmp_path, capsys, command):
        # json.loads gives up with RecursionError; that is the model file's
        # fault, not a formula's
        deep = tmp_path / "deep.model.json"
        deep.write_text('{"worlds": ' + "[" * 200_000 + "]" * 200_000 + "}")
        code, out, err = run(capsys, command[0], str(deep), *command[1:])
        assert (code, out, err) == (2, "", "error: not valid JSON: nested too deeply\n")

    @pytest.mark.parametrize("command", [["lint"], ["check", "w", "a", "p"]], ids=["lint", "check"])
    def test_name_that_is_a_list_exits_two(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.model.json"
        bad.write_text(
            '{"worlds": ["w"], "agents": ["a"], "presence": [["a", "w"]],'
            ' "indist": {"a": [[["w"]]]}, "valuation": {}}'
        )
        code, out, err = run(capsys, command[0], str(bad), *command[1:])
        assert (code, out, err) == (2, "", "error: unknown world name ['w'] in 'indist'\n")

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "museum.dot"
        code, _, _ = run(capsys, "lint", MUSEUM_PATH, "--dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert '"a@w1" -- "a@w2"' in text

    def test_json_twin(self, capsys):
        code, out, _ = run(capsys, "lint", MUSEUM_PATH, "--json")
        assert code == 0 and json.loads(out) == {"violations": []}


class TestExpand:
    def test_two_levels(self, capsys):
        code, out, _ = run(capsys, "expand", "p", "2")
        assert code == 0
        assert out.strip() == "R (R p | D p) | D (R p | D p)"

    def test_zero_levels(self, capsys):
        code, out, _ = run(capsys, "expand", "K p -> p", "0")
        assert code == 0 and out.strip() == "K p -> p"

    def test_json_twin(self, capsys):
        code, out, _ = run(capsys, "expand", "p", "1", "--json")
        assert code == 0 and json.loads(out) == {"formula": "R p | D p"}

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "expand", "p &", "1")
        assert code == 2

    def test_deep_chain(self, capsys):
        text = "~" * 10000 + "p"
        code, out, _ = run(capsys, "expand", text, "0")
        assert code == 0 and out == text + "\n"

    def test_longest_expansion_under_the_cap(self, capsys):
        code, out, _ = run(capsys, "expand", "p", "19")
        assert code == 0 and len(out) == 5_242_869 + 1

    @pytest.mark.parametrize("levels", ["20", "30", "1000000000000"])
    @pytest.mark.parametrize("json_twin", [[], ["--json"]])
    def test_expansion_past_the_cap_exits_two(self, capsys, levels, json_twin):
        code, out, err = run(capsys, "expand", "p", levels, *json_twin)
        assert (code, out) == (2, "")
        assert err == f"error: the {levels}-level expansion is longer than 10000000 characters\n"


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["prove", "{bad}"],
            ["prove", "{bad}", "--json"],
            ["lint", "{bad}"],
            ["check", "{bad}", "w1", "a", "p"],
        ],
    )
    def test_non_utf8_input_exits_two(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("theorem caf\xe9\n1: p -> p by taut\n".encode("latin-1"))
        code, out, err = run(capsys, *(arg.format(bad=bad) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize(
        "argv",
        [
            ["valid", "K p", "--max-worlds", "1", "--max-agents", "1", "--dot", "{dot}"],
            ["lint", MUSEUM_PATH, "--dot", "{dot}"],
        ],
    )
    def test_unwritable_dot_path_exits_two(self, tmp_path, capsys, argv):
        dot = tmp_path / "missing" / "x.dot"
        code, out, err = run(capsys, *(arg.format(dot=dot) for arg in argv))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{dot}'\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["valid", "K p -> p", "--max-worlds", "2", "--max-agents", "2"], 0),
            (["valid", "--max-worlds", "two", "p"], 2),
            (["--help"], 0),
        ],
        ids=["valid", "usage-error", "help"],
    )
    def test_second_call_in_a_process_repeats_the_first(self, capsys, argv, code):
        # the parser is built once per process and must not keep state
        first = run(capsys, *argv)
        assert first[0] == code and (first[1] or first[2])
        assert run(capsys, *argv) == first

    def test_no_command_exits_two(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("valid", DEEP, "--max-worlds", "1", "--max-agents", "1"),
            ("check", MUSEUM_PATH, "w1", "a", DEEP),
        ],
        ids=["valid", "check"],
    )
    def test_deeply_nested_formula_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("valid", "{deep}", "--max-worlds", "1", "--max-agents", "1"),
            ("check", MUSEUM_PATH, "w1", "a", "{deep}"),
        ],
        ids=["valid", "check"],
    )
    def test_nesting_past_the_recursion_limit_exits_two(self, capsys, argv):
        deep = "~" * 3000 + "p"
        code, out, err = run(capsys, *(arg.format(deep=deep) for arg in argv))
        assert (code, out, err) == (2, "", "error: formula is nested too deeply\n")

    def test_a_constant_formula_gets_its_verdict_at_any_depth(self, capsys):
        # the sweeps evaluate the folded formula, true here; a refuted one
        # is re-verified against the formula as given, which recurses
        code, out, err = run(capsys, "valid", "~" * 3001 + "false", "--max-worlds", "1", "--max-agents", "1")
        assert (code, out, err) == (0, "valid up to bounds (3 models)\n", "")
        deep = ("valid", "~" * 3000 + "false", "--max-worlds", "1", "--max-agents", "1")
        assert run(capsys, *deep) == (2, "", "error: formula is nested too deeply\n")

    def test_prove_takes_any_nesting(self, tmp_path, capsys):
        text = "~" * 10_000 + "p | " + "~" * 10_001 + "p"
        proof = tmp_path / "deep.proof"
        proof.write_text(f"theorem deep\n1: {text} by taut\n")
        code, out, err = run(capsys, "prove", str(proof))
        assert (code, err) == (0, "")
        assert out == f"{text}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", MUSEUM_PATH, "w1", "z", "p"], "unknown agent name 'z'"),
            (["expand", "p", "-1"], "levels must be nonnegative"),
        ],
        ids=["unknown-agent", "negative-levels"],
    )
    def test_bad_argument_exits_two(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_parentheses_nested_too_deeply_exit_two(self, capsys):
        code, out, err = run(capsys, "valid", "(" * 300 + "p" + ")" * 300)
        assert code == 2 and out == ""
        assert err.startswith("error: syntax error at offset 101: expected at most 100 nested parentheses")


def _model_text(**changes):
    """A one-world, one-agent model file with some keys replaced, or
    dropped where the value is None."""
    doc = {
        "worlds": ["w"],
        "agents": ["a"],
        "presence": [["a", "w"]],
        "indist": {"a": [["w"]]},
        "valuation": {"p": [["a", "w"]]},
    }
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


class TestInputErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            (_model_text(worlds="w"), "'worlds' must be a list of names"),
            (_model_text(agents=["a", 1]), "'agents' must be a list of names"),
            (_model_text(worlds=["w", "w"]), "duplicate worlds names"),
            (_model_text(presence=[["a"]]), "presence/valuation entries must be [agent, world] pairs, got ['a']"),
            (_model_text(presence=[["z", "w"]]), "unknown agent name 'z'"),
            (_model_text(valuation={"p": [["a", "v"]]}), "unknown world name 'v'"),
            ("[]", "top level must be an object"),
            (_model_text(valuation=None), "missing key 'valuation'"),
            (_model_text(presence={}), "'presence' must be a list of [agent, world] pairs"),
            (_model_text(indist=[]), "'indist' must map agent names to block lists"),
            (_model_text(indist={"z": []}), "unknown agent name 'z' in 'indist'"),
            (_model_text(indist={"a": "w"}), "'indist' entry for 'a' must be a list of blocks"),
            (_model_text(indist={"a": ["w"]}), "indistinguishability blocks must be lists, got 'w'"),
            (_model_text(valuation=[]), "'valuation' must map propositions to pair lists"),
            (_model_text(valuation={"p": "x"}), "valuation for 'p' must be a list of pairs"),
        ],
        ids=[
            "names-not-a-list",
            "name-not-a-string",
            "duplicate-names",
            "not-a-pair",
            "pair-unknown-agent",
            "pair-unknown-world",
            "top-level",
            "missing-key",
            "presence-not-a-list",
            "indist-not-a-dict",
            "indist-unknown-agent",
            "block-list-not-a-list",
            "block-not-a-list",
            "valuation-not-a-dict",
            "valuation-pairs-not-a-list",
        ],
    )
    def test_model_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.model.json"
        path.write_text(text)
        assert run(capsys, "lint", str(path)) == (2, "", f"error: {message}\n")

    SYNTAX = (
        "syntax error at offset 4: expected identifier or 'true' or 'false' "
        "or '(' or '~' or 'K' or 'R' or 'D' or 'A', found end of input"
    )

    @pytest.mark.parametrize(
        "text, lineno, reason",
        [
            ("theorem\n1: p -> p by taut\n", 1, "theorem header needs a name"),
            ("from p &\n1: p by hyp 1\n", 1, f"bad hypothesis: {SYNTAX}"),
            ("theorem t\nfoo\n", 2, "expected '<n>: <formula> by <justification>'"),
            ("# nothing\n", 1, "empty proof file"),
            ("theorem t\n", 1, "proof file has a header but no lines"),
            ("theorem t\n1: p -> p by taut x\n", 2, "taut takes no arguments"),
            ("theorem t\n1: p by cite\n", 2, "expected 'cite <name> [<var>=<formula>, ...]'"),
            (
                "theorem t\n1: K p -> K K p by cite positive_introspection [PHI]\n",
                2,
                "bad substitution item 'PHI'",
            ),
            (
                "theorem t\n1: K p -> K K p by cite positive_introspection [PHI=p &]\n",
                2,
                f"bad substitution formula: {SYNTAX}",
            ),
        ],
        ids=[
            "nameless-theorem",
            "bad-hypothesis",
            "not-a-numbered-line",
            "empty-file",
            "no-lines",
            "axiom-with-arguments",
            "malformed-cite",
            "bad-substitution-item",
            "bad-substitution-formula",
        ],
    )
    def test_proof_file(self, tmp_path, capsys, text, lineno, reason):
        path = tmp_path / "bad.proof"
        path.write_text(text)
        for extra in ((), ("--json",)):
            got = run(capsys, "prove", str(path), *extra)
            assert got == (2, "", f"error: proof file line {lineno}: {reason}\n")

    @pytest.mark.parametrize(
        "text, line, rule, reason",
        [
            ("from p\n1: p by hyp 2\n", 1, "hyp", "no hypothesis 2"),
            ("from p\n1: q by hyp 1\n", 1, "hyp", "line states q but hypothesis 1 is p"),
            ("theorem t\n1: p -> p by taut\n2: K p by nec 1\n", 2, "nec", "expected K applied to line 1"),
            ("theorem t\n1: ~false by taut\n2: D ~false by monoD 1\n", 2, "monoD", "line 1 is not an implication"),
            ("theorem t\n1: p -> p by taut\n2: R p -> D p by monoR 1\n", 2, "monoR", "expected R p -> R p"),
            (
                "theorem t\n1: K p -> K K p by cite positive_introspection\n",
                1,
                "cite",
                "metavariable PHI is not bound by the substitution",
            ),
        ],
        ids=["no-hypothesis", "wrong-hypothesis", "wrong-nec", "mono-of-non-implication", "wrong-mono", "unbound-cite"],
    )
    def test_proof_check(self, tmp_path, capsys, text, line, rule, reason):
        path = tmp_path / "bad.proof"
        path.write_text(text)
        assert run(capsys, "prove", str(path)) == (1, f"line {line}: {rule}: {reason}\n", "")
        code, out, err = run(capsys, "prove", str(path), "--json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"ok": False, "line": line, "rule": rule, "reason": reason}
