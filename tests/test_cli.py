import json
import pathlib

import pytest

from thorntrees.cli import main
from thorntrees.structures import deserialize

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "A", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "partition,value,provenance"
    assert "4^1,6,formula" in lines
    assert "1^4,1,formula" in lines


def test_table_json_and_stability(capsys):
    code, out1, _ = run(capsys, "table", "C", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out1)
    assert obj["family"] == "C" and obj["n"] == 5
    code, out2, _ = run(capsys, "table", "C", "5", "--format", "json")
    assert out1 == out2  # byte-stable stdout


def test_table_B_parity(capsys):
    code, out, _ = run(capsys, "table", "B", "4", "--parity", "4",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    labels = [r[0] for r in rows]
    # only even-length partitions of 4 remain
    assert labels == ["1^1 3^1", "2^2", "1^4"]


def test_table_stirling(capsys):
    code, out, _ = run(capsys, "table", "stirling", "4")
    assert code == 0
    assert "4,2,11,formula" in out.splitlines()


def test_table_oracle_agrees_with_formula(capsys):
    _, formula, _ = run(capsys, "table", "D", "5")
    _, brute, _ = run(capsys, "table", "D", "5", "--oracle")
    strip = lambda s: [line.rsplit(",", 1)[0] for line in s.splitlines()]
    assert strip(formula) == strip(brute)


def test_table_refusal(capsys):
    code, out, err = run(capsys, "table", "C", "9", "--oracle")
    assert code == 2
    assert out == ""
    assert "refused" in err


def test_table_oracle_default_budget_per_family(capsys):
    code, out, err = run(capsys, "table", "C", "7", "--oracle")
    assert code == 2
    assert out == ""
    assert "refused" in err
    code, out, _ = run(capsys, "table", "A", "8", "--oracle")
    assert code == 0
    assert "8^1,5040,oracle" in out.splitlines()


def test_table_B_oracle(capsys):
    _, solver, _ = run(capsys, "table", "B", "6")
    code, brute, _ = run(capsys, "table", "B", "6", "--oracle")
    assert code == 0
    assert brute == solver.replace(",solver", ",oracle")
    code, out, err = run(capsys, "table", "B", "9", "--oracle")
    assert code == 2
    assert out == ""
    assert "refused" in err


def test_table_Bprime_oracle(capsys):
    _, solver, _ = run(capsys, "table", "Bprime", "7", "--format", "json")
    code, brute, _ = run(capsys, "table", "Bprime", "7", "--oracle",
                         "--format", "json")
    assert code == 0
    assert json.loads(brute)["provenance"] == "oracle"
    assert json.loads(brute)["rows"] == json.loads(solver)["rows"]
    code, out, _ = run(capsys, "table", "Bprime", "7", "--oracle",
                       "--budget", "6")
    assert code == 2
    assert out == ""


def test_verify_zagier(capsys):
    code, out, err = run(capsys, "verify", "zagier", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert all(it["ok"] for it in rep["items"])
    assert "wall time" in err and "wall" not in out


def test_verify_bijection(capsys):
    code, out, _ = run(capsys, "verify", "bijection", "4")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_refusal(capsys):
    code, out, _ = run(capsys, "verify", "proportions", "8")
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "refused" and "reason" in rep


def test_transform_psi_and_invert(tmp_path, capsys):
    code, out, _ = run(capsys, "transform", "psi",
                       str(FIXTURES / "example21.json"))
    assert code == 0
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(out)
    code, out2, _ = run(capsys, "transform", "invert", str(tree_file))
    assert code == 0
    rep = json.loads(out2)
    assert rep["status"] == "success"
    assert rep["map"]["beta"] == [1, 5, 7, 4, 2, 6, 3]


def test_transform_classify(capsys):
    code, out, _ = run(capsys, "transform", "classify",
                       str(FIXTURES / "selfloop4.json"))
    assert code == 0
    assert json.loads(out)["kind"] == "cycle"


def test_transform_contract(tmp_path, capsys):
    code, out, _ = run(capsys, "transform", "psi",
                       str(FIXTURES / "example21.json"))
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(out)
    t = deserialize(out)
    from thorntrees.bijection import aux_graph
    g = aux_graph(t)
    marked = next(b for b in range(t.tree.p)
                  if b != g.root and g.out[b] != b)
    code, out2, _ = run(capsys, "transform", "contract", str(tree_file),
                        "--mark", str(marked))
    assert code == 0
    rep = json.loads(out2)
    assert "tree" in rep and "marked_element" in rep


def test_transform_contract_requires_mark(capsys):
    code, _, err = run(capsys, "transform", "contract",
                       str(FIXTURES / "ex1.json"))
    assert code == 2 and "--mark" in err


def test_export_dot(tmp_path, capsys):
    out_file = tmp_path / "g.dot"
    code, _, _ = run(capsys, "export-dot", str(FIXTURES / "ex1.json"),
                     "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph") or text.startswith("graph")
    code, out, _ = run(capsys, "export-dot", str(FIXTURES / "ex1.json"),
                       "--aux")
    assert code == 0 and "digraph" in out


def test_bad_input_file(capsys):
    code, _, err = run(capsys, "transform", "classify", "/nonexistent.json")
    assert code == 2 and "error" in err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "transform", "classify", str(bad))
    assert code == 2 and "line" in err


def test_usage_error(capsys):
    code, _, _ = run(capsys, "table", "Z", "4")
    assert code == 2
