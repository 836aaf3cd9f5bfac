"""numpy and scipy.linalg's compiled LAPACK and BLAS, each loaded at its first attribute access.

The closed forms (``classify``, ``table``, ``landen``) use only :mod:`math`, so a process that runs
only them never pays numpy's import.  ``import lawson`` places nothing in ``sys.modules``: ``np``,
``lapack`` and ``blas`` are stand-ins (:class:`_Deferred`), and ``import numpy`` elsewhere stays an
ordinary import.  A stand-in's first missing attribute loads its module under one lock, shared so
that no extension runs twice, copies the module's names and makes the stand-in a plain module,
whose lookups cost what a module's do.  A missing numpy fails at ``import lawson``.
"""

import importlib.machinery
import importlib.util
import os
import sys
import threading
import types

_lock = threading.Lock()


def _rearm():
    """A child made by fork starts with the lock free, whatever thread held it in the parent."""
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rearm)


def _load(name: str) -> types.ModuleType:
    """numpy by a normal import.  scipy.linalg's compiled ``_flapack`` or ``_fblas`` from its file,
    registered in ``sys.modules`` under its own name: neither scipy/__init__ nor its linalg's runs,
    and a later ``import scipy.linalg`` reuses it, so scipy.linalg.lapack and .blas expose these
    very functions.  Without the file, the public scipy.linalg.lapack or .blas."""
    if name == "numpy" or name in sys.modules:
        return importlib.import_module(name)
    package, stem = name.rsplit(".", 1)
    roots = importlib.util.find_spec("scipy").submodule_search_locations
    paths = (os.path.join(root, "linalg", stem + suffix) for root in roots
             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next(filter(os.path.isfile, paths), None)
    if path is None:
        return importlib.import_module(f"{package}.{stem[2:]}")  # _flapack -> lapack
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


class _Deferred(types.ModuleType):
    """The module ``__name__``, loaded at the first attribute this stand-in lacks."""

    def __getattr__(self, attr: str):
        with _lock:
            if type(self) is _Deferred:  # not loaded meanwhile by the thread that held the lock
                vars(self).update(vars(_load(self.__name__)))
                self.__class__ = types.ModuleType
        return getattr(self, attr)


if importlib.util.find_spec("numpy") is None:
    raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
np = _Deferred("numpy")
lapack = _Deferred("scipy.linalg._flapack")
blas = _Deferred("scipy.linalg._fblas")
