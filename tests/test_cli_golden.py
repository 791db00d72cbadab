"""The command line reproduces the committed golden file byte for byte:
exit codes, stdout, stderr and output files (see cli_golden)."""

from cli_golden import CASES, committed_lines, golden_lines


def test_cli_outputs_match_the_golden_file():
    committed = committed_lines()
    assert len(committed) == len(CASES)
    assert golden_lines() == committed
