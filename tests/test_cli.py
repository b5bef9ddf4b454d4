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


def test_analyze_searches_an_incomplete_non_code_once(capsys, example_file, monkeypatch):
    # a non-code's completeness is its incompletable-word search, so the
    # search that decides it also gives the witness
    from codesync import completeness

    calls = []
    real = completeness._incompletable_word

    def counted(automaton, cap):
        calls.append(automaton)
        return real(automaton, cap)

    monkeypatch.setattr(completeness, "_incompletable_word", counted)
    code, data = run_json(capsys, ["analyze", example_file, "--json"])
    assert code == 0 and data["shortest_incompletable"] == "abbabba"
    assert len(calls) == 1


def test_encode_searches_a_complete_non_code_once(capsys, tmp_path, monkeypatch):
    # the completeness answer is memoized on X, so cmd_encode and the
    # reduction share one search of X; the second is h(X)'s
    from codesync import completeness

    sizes = []
    real = completeness._incompletable_word

    def counted(automaton, cap):
        sizes.append(automaton.n_states)
        return real(automaton, cap)

    monkeypatch.setattr(completeness, "_incompletable_word", counted)
    p = tmp_path / "abc.lang"
    p.write_text("alphabet: a b c\na\nb\nc\nab\n")
    assert main(["encode", str(p)]) == 0
    assert capsys.readouterr().out.startswith("pair: (a, ε); ledger: ")
    assert sizes == [2, 4]


def test_analyze_without_a_pair_within_budget(capsys, tmp_path):
    # {aa} is a complete code on one letter that does not synchronize
    p = tmp_path / "aa.lang"
    p.write_text("alphabet: a\naa\n")
    assert main(["analyze", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "no synchronizing pair with |uv| ≤ 8 found"


def test_json_words_without_an_alphabet(capsys, tmp_path):
    # string words infer their alphabet; index-form words cannot
    p = tmp_path / "strings.json"
    p.write_text('{"words": ["ab", "ba", "aa"]}')
    code, data = run_json(capsys, ["analyze", str(p), "--json"])
    assert code == 0
    assert (data["alphabet"], data["words"]) == (["a", "b"], ["aa", "ab", "ba"])
    p = tmp_path / "indices.json"
    p.write_text('{"words": [[0, 1], [1]]}')
    assert main(["analyze", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: index-form words require an explicit alphabet"]


def test_analyze_reads_the_epsilon_free_core(capsys, tmp_path):
    """Every property is that of {a, ba, bb}, the core without ε."""
    p = tmp_path / "eps.lang"
    p.write_text("ε\na\nba\nbb\n")
    code, data = run_json(capsys, ["analyze", str(p), "--json"])
    assert code == 0
    assert data["contains_epsilon"] is True
    assert data["is_code"] is True and data["is_prefix"] is True


def test_analyze_only_epsilon_is_degenerate(capsys, tmp_path):
    p = tmp_path / "eps.lang"
    p.write_text("alphabet: a b\nε\n")
    code, data = run_json(capsys, ["analyze", str(p), "--json"])
    assert code == 0
    assert data == {"words": ["ε"], "degenerate": "only ε"}


EPSILON_CORE = "ε\na\nba\nbb\n"
TERNARY_EPSILON_CORE = "alphabet: a b c\nε\na\nb\nca\ncb\ncc\n"


@pytest.mark.parametrize("content, argv, exit_code, expected", [
    (EPSILON_CORE, ["incompletable"], 1, {"complete": True, "witness": None}),
    (EPSILON_CORE, ["syncpair"], 0, {"pair": ["a", "ε"], "total_length": 1, "checked_by": "code"}),
    (EPSILON_CORE, ["syncpair", "--check", "a", "ε"], 0, {"pair": ["a", "ε"], "synchronizing": True}),
    (TERNARY_EPSILON_CORE, ["encode"], 0, {"kind": "synchronizing", "decoded": ["a", "ε"]}),
], ids=["incompletable", "syncpair", "syncpair-check", "encode"])
def test_verbs_read_the_epsilon_free_core(capsys, tmp_path, content, argv, exit_code, expected):
    """ε adds nothing to X*, so these verbs answer for X without ε."""
    p = tmp_path / "eps.lang"
    p.write_text(content)
    code, data = run_json(capsys, [argv[0], str(p), *argv[1:], "--json"])
    assert code == exit_code
    assert {key: data[key] for key in expected} == expected


ONLY_EPSILON = "alphabet: a b\nε\n"
DEGENERATE = {"words": ["ε"], "degenerate": "only ε"}


@pytest.mark.parametrize("argv, expected", [
    (["incompletable"], {"complete": False, "witness": "a", "length": 1}),
    (["incompletable", "--max-len", "3"], {"complete": False, "witness": "a", "length": 1}),
    (["syncpair"], DEGENERATE),
    (["syncpair", "--check", "a", "b"], DEGENERATE),
], ids=["incompletable", "incompletable-max-len", "syncpair", "syncpair-check"])
def test_verbs_on_a_language_holding_only_epsilon(capsys, tmp_path, argv, expected):
    """X* = {ε}, so every letter is incompletable; syncpair reports the
    language as degenerate, as analyze does."""
    p = tmp_path / "eps.lang"
    p.write_text(ONLY_EPSILON)
    code, data = run_json(capsys, [argv[0], str(p), *argv[1:], "--json"])
    assert code == 0
    assert data == expected


@pytest.mark.parametrize("mode", ["general", "uniform"])
def test_encode_on_a_language_holding_only_epsilon(capsys, tmp_path, mode):
    """There is no flower automaton to encode; encode reports the language as
    degenerate, as analyze and syncpair do."""
    p = tmp_path / "eps.lang"
    p.write_text("alphabet: a b c\nε\n")
    code, data = run_json(capsys, ["encode", str(p), "--mode", mode, "--json"])
    assert code == 0
    assert data == DEGENERATE


def test_reduce_refuses_epsilon(capsys, tmp_path):
    p = tmp_path / "eps.lang"
    p.write_text(EPSILON_CORE)
    assert main(["reduce", str(p)]) == 2
    assert "ε ∈ X is not a valid code candidate" in capsys.readouterr().err


def test_incompletable_found(capsys, example_file):
    code, data = run_json(capsys, ["incompletable", example_file, "--max-len", "7", "--json"])
    assert code == 0
    assert data["witness"] == "abbabba" and data["length"] == 7


def test_incompletable_max_len_below_the_witness(capsys, example_file):
    """Neither oracle finds a word of length ≤ 5, which is agreement, not a clash."""
    code, data = run_json(capsys, ["incompletable", example_file, "--max-len", "5", "--json"])
    assert code == 0
    assert data["witness"] == "abbabba" and data["length"] == 7


def test_incompletable_oracle_disagreement_is_an_internal_error(capsys, example_file, monkeypatch):
    from codesync import cli

    monkeypatch.setattr(cli, "brute_force_incompletable", lambda language, max_len: None)
    assert main(["incompletable", example_file, "--max-len", "7", "--json"]) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 2 and lines[0].startswith("internal error:")
    assert json.loads(lines[1]) == {
        "words": ["aa", "ab", "ba", "baa", "bbb"], "search": "abbabba", "brute_force": None, "max_len": 7,
    }


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


def test_syncpair_stops_when_no_pair_is_left(capsys, tmp_path):
    # {abab} does not synchronize; the search must end once every pairing is
    # tried rather than run on to the budget
    p = tmp_path / "abab.lang"
    p.write_text("abab\n")
    code, data = run_json(capsys, ["syncpair", str(p), "--budget", "20000", "--json"])
    assert code == 1
    assert data == {"pair": None, "budget": 20000}


def test_reduce_without_a_pair_within_budget_is_a_false_property(capsys, tmp_path):
    # {aa} is a complete code with no pair at all; syncpair exits 1 on it too
    p = tmp_path / "aa.lang"
    p.write_text("alphabet: a\naa\n")
    code, data = run_json(capsys, ["reduce", str(p), "--json"])
    assert code == 1
    assert data == {"synchronizing": False, "reason": "no synchronizing pair with |uv| ≤ 12 found"}
    assert main(["syncpair", str(p)]) == 1


def test_reduce_with_a_pair_that_fails_verification_is_a_false_property(capsys, prefix_file):
    assert main(["reduce", prefix_file, "--pair", "a", "ε"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "the supplied pair failed verification\n" and captured.err == ""


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


@pytest.mark.parametrize("lengths", ["1,x,3", ""])
def test_construct_rejects_non_integer_lengths(capsys, lengths):
    code = main(["construct", "--lengths", lengths])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --lengths") and err.count("\n") == 1


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


def test_encode_power2_needs_a_power_of_two_alphabet(capsys, tmp_path):
    p = tmp_path / "tern.lang"
    p.write_text("alphabet: a b c\na\nb\nca\ncb\ncc\n")
    assert main(["encode", str(p), "--mode", "power2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_encode_general_complete_sync(capsys, tmp_path):
    p = tmp_path / "tern.lang"
    p.write_text("alphabet: a b c\na\nb\nca\ncb\ncc\n")
    code, data = run_json(capsys, ["encode", str(p), "--json"])
    assert code == 0
    assert data["kind"] == "synchronizing"
    assert data["ledger"]["ok"] is True


@pytest.mark.parametrize("mode", ["general", "uniform"])
def test_encode_a_complete_set_that_does_not_synchronize(capsys, tmp_path, mode):
    # A² on three letters: the pair search ends with no pair, a false
    # property in the shape reduce reports it, not a resource cap
    p = tmp_path / "square.lang"
    p.write_text("alphabet: a b c\n" + "".join(a + b + "\n" for a in "abc" for b in "abc"))
    code, data = run_json(capsys, ["encode", str(p), "--mode", mode, "--json"])
    assert code == 1
    assert data["synchronizing"] is False and set(data) == {"synchronizing", "reason"}


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


@pytest.mark.parametrize("content, argv", [
    (b"\xe9\na\n", ["analyze", "{file}"]),
    (b'{"alphabet": ["a", "b"], "words": [["x"]]}', ["analyze", "{file}"]),
    (b'{"alphabet": 5, "words": ["a"]}', ["analyze", "{file}"]),
    (PREFIX_EXAMPLE.encode(), ["reduce", "{file}", "--trace", "{missing}/x.json"]),
    (None, ["experiment", "R", "--class", "prefix", "--n", "1", "--d", "2", "--out", "{missing}/r.json"]),
], ids=["not-utf8", "index-not-int", "alphabet-not-list", "trace-dir-missing", "out-dir-missing"])
def test_unreadable_input_and_unwritable_output_are_usage_errors(capsys, tmp_path, content, argv):
    # each escaped as a traceback with exit 1, which means "property false"
    file = tmp_path / "input.lang"
    if content is not None:
        file.write_bytes(content)
    argv = [a.format(file=file, missing=tmp_path / "missing") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_resource_cap_exit_code(capsys, tmp_path):
    code = main(
        ["experiment", "R", "--class", "all", "--n", "4", "--d", "2"]
    )
    # 2^30 candidates exceed the default instance cap
    assert code == 3


def test_resource_cap_is_reported_before_the_pool_is_built(capsys, monkeypatch):
    from codesync import experiments

    def no_pool(alphabet, n):
        raise AssertionError("the word pool was built")

    monkeypatch.setattr(experiments, "_word_pool", no_pool)
    assert main(["experiment", "R", "--class", "all", "--n", "40", "--d", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource cap:")


def test_internal_error_exit_code_and_payload(capsys, monkeypatch):
    # a failed theorem check is a bug, not a usage error: exit 4, one
    # ``internal error:`` line, then its payload as one JSON line
    from codesync import cli
    from codesync.errors import InternalInvariantError

    def broken(profile):
        details = {"d": profile.d, "lengths": profile.lengths}
        raise InternalInvariantError("canonical allocation overflowed", details)

    monkeypatch.setattr(cli, "kraft_canonical", broken)
    assert main(["construct", "--lengths", "1,2,2", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    message, payload = captured.err.splitlines()
    assert message == "internal error: canonical allocation overflowed"
    assert json.loads(payload) == {"d": 2, "lengths": [1, 2, 2]}


def test_random_complete_sweep_on_one_letter(capsys):
    # the complete codes on one letter are the single words a^k
    code, data = run_json(
        capsys,
        ["experiment", "C", "--class", "complete-prefix", "--n", "3", "--d", "1", "--mode", "random"],
    )
    assert code == 0
    assert data["value"] == 0 and data["witness_language"] == ["a"]


@pytest.mark.parametrize("argv", [
    ["experiment", "R", "--class", "all", "--n", "-1", "--d", "2"],
    ["experiment", "R", "--class", "all", "--n", "0", "--d", "2"],
    ["experiment", "C", "--class", "complete-codes", "--n", "0", "--d", "2"],
    ["experiment", "R", "--class", "codes", "--n", "2", "--d", "2", "--mode", "random", "--samples", "0"],
])
def test_experiment_rejects_meaningless_sizes(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
