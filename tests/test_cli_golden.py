import cli_golden


def test_cli_matches_the_golden_record():
    """Exit code, stdout and stderr of every fixture invocation are as
    recorded in ``fixtures/cli_golden.json``."""
    assert cli_golden.mismatches() == []
