import copy
import pickle

import pytest

from sqlalign import errors
from sqlalign.errors import SqlAlignError

# One instance of every error type, built the way the package raises it.
SAMPLES = {
    errors.SqlAlignError: errors.SqlAlignError("failed"),
    errors.ParseError: errors.ParseError("unexpected character", 7),
    errors.EmptyDistributionError: errors.EmptyDistributionError("no n-grams"),
    errors.EmptyTargetSetError: errors.EmptyTargetSetError("no targets"),
    errors.FormatError: errors.FormatError("expected a JSON object", row=3, path="c.jsonl"),
    errors.EmptyCorpusError: errors.EmptyCorpusError("contains no usable records", path="c.jsonl"),
    errors.SpecMismatchError: errors.SpecMismatchError("l_max differs"),
}


def _subclasses(cls):
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _subclasses(sub)
    return found


def test_every_error_type_has_a_sample():
    assert _subclasses(SqlAlignError) == set(SAMPLES)


@pytest.mark.parametrize("error", SAMPLES.values(), ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
                         ids=["pickle", "copy"])
def test_errors_survive_pickle_and_copy(error, clone):
    cloned = clone(error)
    assert type(cloned) is type(error)
    assert str(cloned) == str(error)
    assert cloned.args == error.args
    for attribute in ("message", "position", "row", "path"):
        assert getattr(cloned, attribute, None) == getattr(error, attribute, None)


def test_parse_error_keeps_its_notes_through_pickle():
    error = errors.ParseError("unexpected end of query", 12)
    error.__notes__ = ["row 4"]  # what add_note sets
    assert pickle.loads(pickle.dumps(error)).__notes__ == ["row 4"]
