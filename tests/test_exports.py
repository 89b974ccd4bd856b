"""The package's export list and the names it binds stay one list."""

import types

import atmtomo


def test_export_list_matches_the_public_names():
    assert [name for name in atmtomo.__all__ if not hasattr(atmtomo, name)] == []
    assert len(set(atmtomo.__all__)) == len(atmtomo.__all__)
    starred = {}
    exec("from atmtomo import *", starred)
    public = {
        name
        for name, value in vars(atmtomo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(atmtomo.__all__)
    assert set(starred) - {"__builtins__"} == public
