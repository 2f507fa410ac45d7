"""The package's public namespace."""

import topokit


def test_all_names_resolve_once():
    assert len(set(topokit.__all__)) == len(topokit.__all__)
    for name in topokit.__all__:
        assert getattr(topokit, name) is not None
