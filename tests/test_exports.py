"""The package exports the names its submodules define, and only those."""

import types

import atmtomo


def test_export_list_matches_the_public_names():
    starred = {}
    exec("from atmtomo import *", starred)
    public = {
        name
        for name, value in vars(atmtomo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(starred) - {"__builtins__"} == public == set(atmtomo.__all__)
    assert len(set(atmtomo.__all__)) == len(atmtomo.__all__)
    # a stray import in the package's __init__ would otherwise become an export
    foreign = [
        name
        for name in atmtomo.__all__
        if not getattr(atmtomo, name).__module__.startswith("atmtomo.")
    ]
    assert foreign == []
