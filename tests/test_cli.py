import json

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
        import re

        world, agent = re.search(r"world (\w+), agent (\w+)", header).groups()
        code, out, _ = run(capsys, "check", str(model_path), world, agent, "R p -> K R p")
        assert code == 1 and out.strip() == "false"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "valid", "K p ->")
        assert code == 2

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

    def test_prune_keeps_verdict(self, capsys):
        code, out, _ = run(
            capsys, "valid", "K p -> p", "--max-worlds", "2", "--max-agents", "2", "--prune"
        )
        assert code == 0 and out.startswith("valid up to bounds")


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

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, "prove", "/no/such/file.proof")
        assert code == 2

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


class TestUsage:
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
