"""End-to-end command-line tests: exit codes and printed reports."""

import json

import pytest

from nbhd import (
    Monotone, builtin_certificate, check_condition, fixture, load_model,
    model_to_dict, save_model,
)
from nbhd.cli import main


@pytest.fixture()
def m1(tmp_path):
    path = tmp_path / "m1.json"
    save_model(fixture("M1"), str(path))
    return str(path)


@pytest.fixture()
def nr(tmp_path):
    path = tmp_path / "nr.json"
    save_model(fixture("NONREFLEXIVE"), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


# ---------------------------------------------------------------------------
# check


def test_check_at_a_world(capsys, m1):
    code, out, _ = run(capsys, "check", "--model", m1,
                       "--formula", "[1,2]((p|r)&(q|r))", "--world", "wp")
    assert (code, out) == (1, ["false at wp"])
    code, out, _ = run(capsys, "check", "--model", m1,
                       "--formula", "p | q | r", "--world", "wp")
    assert (code, out) == (0, ["true at wp"])


def test_check_all_worlds(capsys, m1):
    code, out, _ = run(capsys, "check", "--model", m1,
                       "--formula", "p | q | r")
    assert (code, out) == (0, ["valid on the model"])
    code, out, _ = run(capsys, "check", "--model", m1, "--formula", "p")
    assert (code, out) == (1, ["false at wq"])


def test_check_json(capsys, m1):
    code, out, _ = run(capsys, "check", "--model", m1, "--formula", "p",
                       "--world", "wp", "--json")
    assert code == 0
    payload = json.loads("\n".join(out))
    assert payload == {"command": "check", "model": m1, "formula": "p",
                       "world": "wp", "holds": True}


def test_check_unknown_world(capsys, m1):
    code, out, err = run(capsys, "check", "--model", m1, "--formula", "p",
                         "--world", "nope")
    assert code == 2 and out == []
    assert err.startswith("error: no world labelled")


def test_check_bad_formula(capsys, m1):
    code, _, err = run(capsys, "check", "--model", m1, "--formula", "p &")
    assert code == 2 and err.startswith("error:")


def test_check_missing_model_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--model",
                       str(tmp_path / "none.json"), "--formula", "p")
    assert code == 2 and err.startswith("error: cannot read")


# ---------------------------------------------------------------------------
# valid


def test_valid_finds_the_cg_countermodel(capsys):
    code, out, _ = run(capsys, "valid", "--schema", "cg", "--pool", "1")
    assert code == 1
    assert out[0] == ("countermodel found at index 10: "
                      "world w1, G={1}, H={1}, phi={w0}, psi={w1}")
    assert out[1].startswith("model: ")
    model = json.loads(out[1][len("model: "):])
    assert model["agents"]["1"]["w1"] == [["w0"], ["w1"]]


def test_valid_formula_with_derived_bounds(capsys):
    code, out, _ = run(capsys, "valid", "--formula", "p -> p")
    assert (code, out) == (0, ["no countermodel within bounds "
                               "(not a validity proof)"])
    code, out, _ = run(capsys, "valid", "--formula", "[1]true",
                       "--max-worlds", "1")
    assert code == 1
    assert out[0] == "countermodel found at index 0: false at w0"


def test_valid_json_payload(capsys):
    code, out, _ = run(capsys, "valid", "--schema", "cg", "--pool", "1",
                       "--json")
    assert code == 1
    payload = json.loads("\n".join(out))
    assert payload["found"] is True and payload["index"] == 10
    assert payload["target"] == "cg"
    assert payload["witness"]["groups"] == {"G": [1], "H": [1]}
    assert payload["witness"]["sets"] == {"phi": ["w0"], "psi": ["w1"]}
    assert payload["model"]["worlds"] == ["w0", "w1"]


def test_valid_random_mode(capsys):
    code, _, err = run(capsys, "valid", "--formula", "p", "--mode", "random")
    assert code == 2 and "explicit seed" in err
    code, out, _ = run(capsys, "valid", "--schema", "b1", "--mode", "random",
                       "--agents", "1,2", "--seed", "5", "--trials", "50",
                       "--max-worlds", "3")
    assert (code, out) == (0, ["no countermodel within bounds "
                               "(not a validity proof)"])


def test_valid_with_constraints(capsys):
    code, out, _ = run(capsys, "valid", "--schema", "tg", "--pool", "1;2;1,2",
                       "--mode", "random", "--seed", "3", "--trials", "30",
                       "--max-worlds", "2", "--agents", "1,2",
                       "--constraints", "reflexive")
    assert (code, out) == (0, ["no countermodel within bounds "
                               "(not a validity proof)"])


# ---------------------------------------------------------------------------
# schema


def test_schema_counterexample(capsys, m1):
    code, out, _ = run(capsys, "schema", "--model", m1, "--schema", "b1")
    assert code == 1
    assert out == ["counterexample: world wp, G={1}, H={2}, "
                   "phi={wp,wr}, psi={wq,wr}"]
    code, out, _ = run(capsys, "schema", "--model", m1, "--schema", "b2")
    assert (code, out) == (0, ["valid"])


def test_schema_definable_only_note(capsys, nr):
    code, out, _ = run(capsys, "schema", "--model", nr, "--schema", "tg",
                       "--mode", "definable-only", "--pool", "1")
    assert code == 0
    assert out == ["valid",
                   "note: holds over the 2 definable sets, but over all 4 "
                   "subsets it fails at world v, G={1}, phi={0}"]
    code, out, _ = run(capsys, "schema", "--model", nr, "--schema", "tg",
                       "--mode", "definable-only", "--pool", "1,2")
    assert code == 1
    assert out == ["counterexample: world w, G={1,2}, phi={}"]


def test_schema_json(capsys, nr):
    code, out, _ = run(capsys, "schema", "--model", nr, "--schema", "tg",
                       "--mode", "definable-only", "--pool", "1", "--json")
    assert code == 0
    payload = json.loads("\n".join(out))
    assert payload["valid"] is True
    assert payload["note"].startswith("holds over the 2 definable sets")


def test_schema_unknown_name(capsys, m1):
    code, _, err = run(capsys, "schema", "--model", m1, "--schema", "b9")
    assert code == 2 and "unknown schema" in err


def test_schema_bad_agent_id(capsys, m1):
    code, _, err = run(capsys, "schema", "--model", m1, "--schema", "nec:x")
    assert code == 2
    assert "schema 'nec' needs an agent id, got 'x'" in err


# ---------------------------------------------------------------------------
# frame


def test_frame_witness(capsys, nr, m1):
    code, out, _ = run(capsys, "frame", "--model", nr,
                       "--condition", "reflexive")
    assert (code, out) == (1, ["fails: world w, agent 2, set {v}"])
    code, out, _ = run(capsys, "frame", "--model", nr,
                       "--condition", "bincons")
    assert (code, out) == (0, ["holds"])
    code, out, _ = run(capsys, "frame", "--model", m1,
                       "--condition", "reflexive")
    assert (code, out) == (1, ["fails: world wp, group {1}, set {}"])


def test_frame_note_and_json(capsys, nr):
    code, out, _ = run(capsys, "frame", "--model", nr, "--condition", "p:5")
    assert (code, out) == (0, ["holds",
                               "note: agent 5 is absent from the model"])
    code, out, _ = run(capsys, "frame", "--model", nr,
                       "--condition", "pg:1,2", "--json")
    assert code == 1
    payload = json.loads("\n".join(out))
    assert payload["witness"] == {"world": "w", "group": [1, 2], "set": []}


def test_frame_unknown_condition(capsys, nr):
    code, _, err = run(capsys, "frame", "--model", nr,
                       "--condition", "transitive")
    assert code == 2 and "unknown frame condition" in err


# ---------------------------------------------------------------------------
# close


def test_close_writes_a_monotone_model(capsys, nr, tmp_path):
    out_path = str(tmp_path / "closed.json")
    code, out, _ = run(capsys, "close", "--model", nr, "--supersets",
                       "-o", out_path)
    assert (code, out) == (0, [f"written {out_path}"])
    closed = load_model(out_path)
    assert check_condition(closed, Monotone()).holds
    assert closed.valuation == fixture("NONREFLEXIVE").valuation


def test_close_rejects_group_indexed_models(capsys, m1, tmp_path):
    code, _, err = run(capsys, "close", "--model", m1, "--intersections",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2 and "agent-indexed" in err


def test_close_needs_exactly_one_direction(capsys, nr, tmp_path):
    code = main(["close", "--model", nr, "--supersets", "--intersections",
                 "-o", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# proof


def _write_cert(tmp_path, name, mutate=None):
    data = builtin_certificate(name)
    if mutate:
        mutate(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_proof_accepts_the_shipped_certificates(capsys, tmp_path):
    path = _write_cert(tmp_path, "sa_from_nec")
    code, out, _ = run(capsys, "proof", "--file", path)
    assert (code, out) == (0, ["accepted (8 lines)"])
    path = _write_cert(tmp_path, "entailment_b1")
    code, out, _ = run(capsys, "proof", "--file", path)
    assert (code, out) == (0, ["accepted (1 lines)"])


def test_proof_rejects_a_broken_certificate(capsys, tmp_path):
    def mutate(data):
        data["lines"][0]["just"]["schema"] = "nec:1"
    path = _write_cert(tmp_path, "sa_from_nec", mutate)
    code, out, _ = run(capsys, "proof", "--file", path)
    assert code == 1
    assert out == ["rejected at line 1: schema nec:1 is not part of this logic"]


def test_proof_json_and_bad_file(capsys, tmp_path):
    path = _write_cert(tmp_path, "b2_consequent")
    code, out, _ = run(capsys, "proof", "--file", path, "--json")
    payload = json.loads("\n".join(out))
    assert code == 0
    assert payload["accepted"] is True and payload["lines"] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "proof", "--file", str(bad))
    assert code == 2 and "not valid JSON" in err


# ---------------------------------------------------------------------------
# fixture


def test_fixture_round_trip(capsys, tmp_path):
    out_path = str(tmp_path / "m3.json")
    code, out, _ = run(capsys, "fixture", "M3", "-o", out_path)
    assert (code, out) == (0, [f"written {out_path}"])
    assert model_to_dict(load_model(out_path)) == model_to_dict(fixture("M3"))


def test_fixture_unknown_name(capsys, tmp_path):
    code = main(["fixture", "M9", "-o", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_independence_fixtures(capsys):
    code, out, _ = run(capsys, "reproduce", "lemma3.1")
    assert code == 0
    assert out[0].split() == ["fixture", "b1", "b2", "b3", "b4"]
    assert out[1].split() == ["M1", "refuted", "valid", "valid", "valid"]
    assert out[4].split() == ["M4", "valid", "valid", "valid", "refuted"]
    assert ("M1 refutes b1 at world wp, G={1}, H={2}, "
            "phi={wp,wr}, psi={wq,wr}") in out
    assert out[-1] == "lemma3.1 reproduction: ok"


def test_reproduce_group_factivity(capsys):
    code, out, _ = run(capsys, "reproduce", "sec5.2")
    assert code == 0
    assert "tg on pool 1: valid over definable sets" in out
    assert "tg on pool 1,2: refuted at world w, G={1,2}, phi={}" in out
    assert "[1,2]false: true at w" in out
    assert out[-1] == "sec5.2 reproduction: ok"


def test_reproduce_json(capsys):
    for target in ("lemma3.1", "sec5.2"):
        code, out, _ = run(capsys, "reproduce", target, "--json")
        assert code == 0
        assert json.loads("\n".join(out))["ok"] is True


# ---------------------------------------------------------------------------
# top level


def test_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
