"""The names ``perfbench/tracing.py`` wraps exist in ``lawson``, and each check's names run.

The tracer looks each one up when a traced benchmark run installs it, so a renamed or deleted
function would otherwise fail only there; a name that stays imported but is no longer called
would leave its check's span empty.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

import lawson.verify
from lawson import Case, validate

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)
_WRAPPED = {n for names in tracing.VERIFY_CHECKS.values() for n in names}


@pytest.mark.parametrize("module,function", [(m, f) for m, f, _ in tracing.LAYER_FUNCTIONS])
def test_each_layer_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function))


@pytest.mark.parametrize("name", sorted(_WRAPPED))
def test_each_verify_check_name_resolves(name):
    assert callable(getattr(lawson.verify, name))


def _count_calls(monkeypatch, names) -> dict:
    """Replace each of ``names`` in ``lawson.verify`` by a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(lawson.verify, name, counted(name, getattr(lawson.verify, name)))
    return calls


def test_each_verify_check_name_runs(monkeypatch):
    """One run_verification calls every name that VERIFY_CHECKS wraps in ``lawson.verify``."""
    calls = _count_calls(monkeypatch, _WRAPPED)
    lawson.verify.run_verification(validate(Case.GENERALIZED, 1, 2, 3), grid_n=2048)
    assert [name for name, n in sorted(calls.items()) if n == 0] == []


def test_every_spectral_call_of_a_verification_is_wrapped(monkeypatch):
    """Each public ``lawson.spectral`` function that a plain or deep run_verification calls is a
    name that VERIFY_CHECKS wraps, so no check's spectral time lands in run_verification's own."""
    import lawson.spectral

    calls = _count_calls(monkeypatch, [
        name for name, value in vars(lawson.verify).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == lawson.spectral.__name__])
    t = validate(Case.GENERALIZED, 1, 2, 3)
    lawson.verify.run_verification(t, grid_n=2048)
    lawson.verify.run_verification(t, grid_n=2048, deep=True)
    called = {name for name, n in calls.items() if n}
    assert called and sorted(called - _WRAPPED) == []
