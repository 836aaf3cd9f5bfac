"""The package namespace re-exports each module's public names."""

import lawson
from lawson import elliptic, errors, spectral, surface, verify

MODULES = (elliptic, errors, spectral, surface, verify)


def test_all_is_the_modules_lists_in_order():
    assert lawson.__all__ == [n for m in MODULES for n in m.__all__]
    assert len(set(lawson.__all__)) == len(lawson.__all__)


def test_each_name_is_the_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lawson, name) is getattr(module, name), name
