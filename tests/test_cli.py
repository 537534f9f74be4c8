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


def test_bad_query_format(tmp_path):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    with pytest.raises(SystemExit):
        main([str(source), "noarity"])


def test_missing_arguments():
    with pytest.raises(SystemExit):
        main([])


def test_non_integer_arity_is_clean_error(tmp_path):
    # regression: this used to escape as a raw ValueError traceback
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    with pytest.raises(SystemExit) as exc_info:
        main([str(source), "foo/bar"])
    assert "arity must be an integer" in str(exc_info.value)


def test_negative_arity_is_clean_error(tmp_path):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    with pytest.raises(SystemExit) as exc_info:
        main([str(source), "foo/-1"])
    assert "arity" in str(exc_info.value)


def test_input_length_mismatch_is_clean_error(tmp_path):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    with pytest.raises(SystemExit) as exc_info:
        main([str(source), "p/1", "--input", "list,any"])
    message = str(exc_info.value)
    assert "2 type(s)" in message and "p/1" in message


def test_profile_input_length_mismatch_is_clean_error(tmp_path):
    from repro.__main__ import profile_main
    source = tmp_path / "prog.pl"
    source.write_text("p(a).")
    with pytest.raises(SystemExit) as exc_info:
        profile_main([str(source), "p/1", "--input", "list,any"])
    assert "2 type(s)" in str(exc_info.value)


def test_disjunction_fallback_warning(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    disj = " , ".join("(X%d = a ; X%d = b)" % (i, i) for i in range(8))
    head = ", ".join("X%d" % i for i in range(8))
    source.write_text("p(%s) :- %s.\n" % (head, disj))
    assert main([str(source), "p/8"]) == 0
    out = capsys.readouterr().out
    assert "oversized disjunction" in out


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
@pytest.mark.parametrize("command", [[], ["check"]])
def test_non_ascii_digit_is_a_clean_syntax_error(tmp_path, capsys,
                                                 digit, command):
    source = tmp_path / "prog.pl"
    source.write_text("p(%s).\n" % digit, encoding="utf-8")
    assert main(command + [str(source), "p/1"]) == 2
    err = capsys.readouterr().err
    assert "error: unexpected character" in err
    assert "at line 1, column 3" in err
