"""The names ``perfbench/tracing.py`` wraps exist in ``lawson``, and each check's names run.

The tracer looks each one up when a traced benchmark run installs it, so a renamed or deleted
function would otherwise fail only there; a name that stays imported but is no longer called
would leave its check's span empty.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
import os

import pytest

import lawson.verify
from lawson import Case, validate

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module,function", [(m, f) for m, f, _ in tracing.LAYER_FUNCTIONS])
def test_each_layer_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function))


@pytest.mark.parametrize("name", sorted({n for names in tracing.VERIFY_CHECKS.values()
                                         for n in names}))
def test_each_verify_check_name_resolves(name):
    assert callable(getattr(lawson.verify, name))


def test_each_verify_check_name_runs(monkeypatch):
    """One run_verification calls every name that VERIFY_CHECKS wraps in ``lawson.verify``."""
    names = {n for names in tracing.VERIFY_CHECKS.values() for n in names}
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(lawson.verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(lawson.verify, name, counted(name))
    lawson.verify.run_verification(validate(Case.GENERALIZED, 1, 2, 3), grid_n=2048)
    assert [name for name, n in sorted(calls.items()) if n == 0] == []
