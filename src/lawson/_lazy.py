"""numpy, bound at ``import lawson`` and loaded at its first attribute access.

The closed forms (``classify``, ``table``, ``landen``) use only :mod:`math`, so
a process that runs only them never pays numpy's import.  This is the lazy
import recipe of the :mod:`importlib` documentation: ``np`` is the module
object that ``sys.modules["numpy"]`` holds, and after its first attribute
access it is the ordinary, fully loaded numpy.  A statement ``import numpy``
reads the module's ``__spec__`` and so loads it: modules of the package take
``np`` from here instead.  Before Python 3.12 the recipe takes no lock, so a
thread that reads ``np`` while another thread's first access is still loading
numpy can see it half initialised.
"""

import importlib
import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``, found now and executed at its first attribute access; an
    already imported one as it is.  A missing module raises ModuleNotFoundError now."""
    if name in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
