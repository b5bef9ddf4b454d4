from __future__ import annotations

import json

import pytest

from codesync.cli import main

EXAMPLE = "aa\nab\nba\nbaa\nbbb\n"
PREFIX_EXAMPLE = "alphabet: a b\na\nbaaa\nbaab\nbab\nbb\n"


@pytest.fixture
def example_file(tmp_path):
    p = tmp_path / "example.lang"
    p.write_text(EXAMPLE)
    return str(p)


@pytest.fixture
def prefix_file(tmp_path):
    p = tmp_path / "prefix.lang"
    p.write_text(PREFIX_EXAMPLE)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze(capsys, example_file):
    code, data = run_json(capsys, ["analyze", example_file, "--json"])
    assert code == 0
    assert data["is_code"] is False
    assert data["is_prefix"] is False
    assert data["is_complete"] is False
    assert data["shortest_incompletable"] == "abbabba"
    assert data["sync_pair_within_budget"] == ["ε", "abba"]


def test_incompletable_found(capsys, example_file):
    code, data = run_json(capsys, ["incompletable", example_file, "--max-len", "7", "--json"])
    assert code == 0
    assert data["witness"] == "abbabba" and data["length"] == 7


def test_incompletable_complete_language(capsys, tmp_path):
    p = tmp_path / "full.lang"
    p.write_text("a\nb\n")
    code, data = run_json(capsys, ["incompletable", str(p), "--json"])
    assert code == 1
    assert data["complete"] is True


def test_syncpair_check_true_false(capsys, example_file):
    code, data = run_json(capsys, ["syncpair", example_file, "--check", "ab", "ba", "--json"])
    assert code == 0 and data["synchronizing"] is True
    code, data = run_json(capsys, ["syncpair", example_file, "--check", "aa", "bbb", "--json"])
    assert code == 1 and data["synchronizing"] is False


def test_syncpair_exact(capsys, example_file):
    code, data = run_json(capsys, ["syncpair", example_file, "--budget", "6", "--json"])
    assert code == 0
    assert data["total_length"] == 4


def test_syncpair_budget_miss(capsys, example_file):
    code, data = run_json(capsys, ["syncpair", example_file, "--budget", "3", "--json"])
    assert code == 1
    assert data["pair"] is None


def test_reduce_with_trace(capsys, prefix_file, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, data = run_json(
        capsys,
        ["reduce", prefix_file, "--pair", "aaa", "ε", "--trace", str(trace_path), "--json"],
    )
    assert code == 0
    assert data["final_pair"] == ["aaa", "ε"]
    on_disk = json.loads(trace_path.read_text())
    assert on_disk["bound"]["value"] == 12
    assert on_disk["left"]["incompletable"] == "aaa'"


def test_construct_plain_and_sync(capsys):
    code, data = run_json(capsys, ["construct", "--lengths", "1,2,2", "--json"])
    assert code == 0 and data["words"] == ["a", "ba", "bb"]
    code, data = run_json(capsys, ["construct", "--lengths", "1,3,3,2", "--sync", "--json"])
    assert code == 0
    assert sorted(len(s) for s in data["words"]) == [1, 2, 3, 3]


def test_construct_gcd_error(capsys):
    code = main(["construct", "--lengths", "2,2", "--sync"])
    assert code == 2


def test_encode_general_incomplete(capsys, tmp_path):
    p = tmp_path / "tern.lang"
    p.write_text("alphabet: a b c\naa\n")
    code, data = run_json(capsys, ["encode", str(p), "--json"])
    assert code == 0
    assert data["kind"] == "incompletable"
    assert data["ledger"]["ok"] is True


def test_encode_uniform(capsys, example_file):
    code, data = run_json(capsys, ["encode", example_file, "--mode", "uniform", "--json"])
    assert code == 0
    assert data["kind"] == "uniform"
    assert data["ledger"]["exact_scaling"] is True


def test_encode_power2(capsys, tmp_path):
    p = tmp_path / "quad.lang"
    p.write_text("alphabet: a b c d\na\nb\nc\nda\ndb\ndc\ndd\n")
    code, data = run_json(capsys, ["encode", str(p), "--mode", "power2", "--json"])
    assert code == 0
    assert data["kind"] == "synchronizing"
    assert data["profile"]["lengths"] == [1, 3, 3, 2]
    assert data["ledger"]["ok"] is True


def test_encode_general_complete_sync(capsys, tmp_path):
    p = tmp_path / "tern.lang"
    p.write_text("alphabet: a b c\na\nb\nca\ncb\ncc\n")
    code, data = run_json(capsys, ["encode", str(p), "--json"])
    assert code == 0
    assert data["kind"] == "synchronizing"
    assert data["ledger"]["ok"] is True


def test_cerny_verify(capsys):
    code, data = run_json(capsys, ["cerny", "4", "--verify", "--json"])
    assert code == 0
    assert data["pair_total_length"] == 9
    assert data["min_dfa_reset_length"] == 7 == data["expected_reset_length"]
    assert data["pair_verified"] is True


def test_experiment_R(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["experiment", "R", "--class", "all", "--n", "1", "--d", "2", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["value"] == 1


def test_experiment_csv(capsys):
    code = main(["experiment", "C", "--class", "complete-codes", "--n", "1", "--d", "2", "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].startswith("kind,class")
    assert out[1].startswith("C,complete-codes,1,2,exhaustive,0")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["syncpair"])  # missing language argument
    assert exc.value.code == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/path.lang"]) == 2


def test_resource_cap_exit_code(capsys, tmp_path):
    code = main(
        ["experiment", "R", "--class", "all", "--n", "4", "--d", "2"]
    )
    # 2^30 candidates exceed the default instance cap
    assert code == 3
