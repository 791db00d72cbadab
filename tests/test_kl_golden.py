"""Distribution files and KL values reproduce the committed golden file
byte for byte (see kl_golden)."""

from kl_golden import GOLDEN_PATH, golden_lines


def test_distributions_and_kl_match_the_golden_file():
    committed = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    assert len(committed) == 160
    assert golden_lines() == committed
