"""Tests for the service-facing CLI: the batch and cache subcommands
and the --json output flag."""

import json

import pytest

from repro.__main__ import main
from repro.service.serialize import FORMAT_VERSION, decode_result

APP = """
app([], X, X).
app([F|T], S, [F|R]) :- app(T, S, R).
"""


def test_json_flag_dumps_decodable_result(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text(APP)
    assert main([str(source), "app/3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["query"] == ["app", 3]
    assert data["result"]["version"] == FORMAT_VERSION
    result = decode_result(data["result"])
    assert result.root_entry.pred == ("app", 3)


def test_batch_cold_then_warm(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["batch", "QU", "AR", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "2 analyzed" in out and "0 cache hits" in out
    assert main(["batch", "QU", "AR", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "2 cache hits" in out and "0 analyzed" in out


def test_batch_json_report(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["batch", "QU", "--cache-dir", cache_dir,
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["misses"] == 1
    assert data["jobs"][0]["name"] == "QU"
    assert decode_result(data["jobs"][0]["result"]).output is not None


def test_batch_file_jobs(tmp_path, capsys):
    source = tmp_path / "prog.pl"
    source.write_text(APP)
    assert main(["batch", "--file", "%s:app/3" % source]) == 0
    out = capsys.readouterr().out
    assert "1 analyzed" in out


@pytest.mark.parametrize("spec, message", [
    ("missing.pl:p/1", "No such file or directory"),
    ("{source}:app", "name/arity"),
], ids=["missing-file", "bad-query"])
def test_batch_bad_file_jobs_are_usage_errors(tmp_path, capsys, spec,
                                              message):
    source = tmp_path / "prog.pl"
    source.write_text(APP)
    spec = spec.format(source=source)
    if spec.startswith("missing"):
        spec = str(tmp_path / spec)
    assert main(["batch", "--file", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_batch_rejects_unknown_benchmark(capsys):
    with pytest.raises(SystemExit):
        main(["batch", "NOPE"])


def test_batch_requires_some_work(capsys):
    with pytest.raises(SystemExit):
        main(["batch"])


def test_cache_info_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    main(["batch", "QU", "--cache-dir", cache_dir])
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    assert "1 entries" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    assert "0 entries" in capsys.readouterr().out


def test_cache_promote_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cache", "promote", "a.pl", "b.pl",
              "--cache-dir", str(tmp_path / "cache")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "Traceback" not in err


def test_legacy_interface_still_works(capsys):
    assert main(["--benchmark", "QU"]) == 0
    assert "queens/2:" in capsys.readouterr().out
