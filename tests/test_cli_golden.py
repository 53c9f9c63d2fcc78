import json

import cli_golden


def test_cli_matches_the_golden_record():
    """Exit code, stdout and stderr of every fixture invocation are as
    recorded in ``fixtures/cli_golden.json``."""
    assert cli_golden.mismatches() == []


def test_processes_check_only_the_named_fixtures(monkeypatch, tmp_path, capsys):
    """``--processes join`` runs join's invocations as processes and
    reports the one whose recorded digest differs, not skips'."""
    join = ["compile", "--project", "join/project.json", "--mapping", "m"]
    skips = ["compile", "--project", "skips/project.json", "--mapping", "m"]
    golden = json.loads(cli_golden.GOLDEN.read_text(encoding="utf-8"))
    key = " ".join(join)
    edited = {key: {**golden[key], "stdout": "0" * 64}, " ".join(skips): {}}
    (tmp_path / "golden.json").write_text(json.dumps(edited), encoding="utf-8")
    monkeypatch.setattr(cli_golden, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(cli_golden, "invocations", lambda: [join, skips])
    assert cli_golden.main(["--processes", "join"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{key}: recorded ") and out.endswith("\n1 mismatches\n")
    monkeypatch.setattr(cli_golden, "GOLDEN", cli_golden.FIXTURES / "cli_golden.json")
    assert cli_golden.process_mismatches(["join"]) == []
