"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main


def test_benchmark_mode(capsys):
    assert main(["--benchmark", "QU"]) == 0
    out = capsys.readouterr().out
    assert "queens/2:" in out
    assert "procedure iterations" in out


def test_file_mode(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("""
        app([], X, X).
        app([F|T], S, [F|R]) :- app(T, S, R).
    """)
    assert main([str(source), "app/3"]) == 0
    out = capsys.readouterr().out
    assert "app/3:" in out
    assert "cons(Any,T)" in out


def test_input_types_flag(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("id(X, X).")
    assert main([str(source), "id/2", "--input", "list,any"]) == 0
    out = capsys.readouterr().out
    assert "cons" in out


def test_tags_flag(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("p([]).")
    assert main([str(source), "p/1", "--tags"]) == 0
    out = capsys.readouterr().out
    assert "output tags" in out
    assert "NI" in out


def test_baseline_flag(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("p([]).")
    assert main([str(source), "p/1", "--baseline"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out


def test_or_width_flag(capsys):
    assert main(["--benchmark", "PG", "--or-width", "2"]) == 0


def test_all_predicates_flag(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("p(X) :- q(X). q(a).")
    assert main([str(source), "p/1", "--all-predicates"]) == 0
    out = capsys.readouterr().out
    assert "q/1:" in out


def usage_error(capsys, argv) -> str:
    """Run ``argv``, require exit status 2 and return the stderr line,
    which must be one ``error: ...`` message."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_bad_query_format(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    assert "name/arity" in usage_error(capsys, [str(source), "noarity"])


def test_missing_arguments():
    with pytest.raises(SystemExit):
        main([])


def test_non_integer_arity_is_clean_error(tmp_path, capsys):
    # regression: this used to escape as a raw ValueError traceback
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    assert "arity must be an integer" in \
        usage_error(capsys, [str(source), "foo/bar"])


def test_negative_arity_is_clean_error(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    assert "arity" in usage_error(capsys, [str(source), "foo/-1"])


def test_input_length_mismatch_is_clean_error(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    message = usage_error(capsys, [str(source), "p/1", "--input",
                                   "list,any"])
    assert "2 type(s)" in message and "p/1" in message


def test_profile_input_length_mismatch_is_clean_error(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    assert "2 type(s)" in usage_error(
        capsys, ["profile", str(source), "p/1", "--input", "list,any"])


@pytest.mark.parametrize("command", [[], ["check"], ["profile"]],
                         ids=["analyze", "check", "profile"])
@pytest.mark.parametrize("args, message", [
    (["p"], "name/arity"),
    (["p/x"], "arity must be an integer"),
    (["p/-1"], "arity must be >= 0"),
    (["/1"], "name/arity"),
    (["p/1", "--input", "any,any"], "2 type(s)"),
    (["p/1", "--input", "tree"], "unknown input type 'tree'"),
    (["q/1"], "undefined predicate: q/1"),
    (["p/1", "--or-width", "-1"], "or-width"),
], ids=["no-slash", "arity-text", "arity-negative", "no-name",
        "input-count", "input-type", "undefined", "or-width"])
def test_bad_arguments_are_usage_errors(tmp_path, capsys, command, args,
                                        message):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    argv = command + [str(source)] + args
    assert message in usage_error(capsys, argv)


def test_disjunction_fallback_warning(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    disj = " , ".join("(X%d = a ; X%d = b)" % (i, i) for i in range(8))
    head = ", ".join("X%d" % i for i in range(8))
    source.write_text("p(%s) :- %s.\n" % (head, disj))
    assert main([str(source), "p/8"]) == 0
    out = capsys.readouterr().out
    assert "oversized disjunction" in out


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
@pytest.mark.parametrize("command", [[], ["check"], ["profile"]])
def test_non_ascii_digit_is_a_clean_syntax_error(tmp_path, capsys,
                                                 digit, command):
    source = tmp_path / "prog.pl"
    source.write_text("p(%s).\n" % digit, encoding="utf-8")
    assert main(command + [str(source), "p/1"]) == 2
    err = capsys.readouterr().err
    assert "error: unexpected character" in err
    assert "at line 1, column 3" in err
