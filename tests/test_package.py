import sqlalign


def test_all_names_resolve_and_are_sorted_once():
    assert [name for name in sqlalign.__all__ if not hasattr(sqlalign, name)] == []
    assert sqlalign.__all__ == sorted(set(sqlalign.__all__))
