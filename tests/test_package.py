"""The package namespace re-exports each module's public names."""

import inspect

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


def test_every_public_function_and_class_is_exported():
    """A function or class that a module defines under a name without a leading underscore is in
    that module's ``__all__``, so ``lawson`` re-exports it."""
    for module in MODULES:
        public = [name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) or inspect.isclass(obj)
                  if obj.__module__ == module.__name__ and not name.startswith("_")]
        assert [name for name in public if name not in module.__all__] == [], module.__name__
