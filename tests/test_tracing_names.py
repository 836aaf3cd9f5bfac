"""The names ``perfbench/tracing.py`` wraps exist in ``lawson``.

The tracer looks each one up when a traced benchmark run installs it, so a renamed or deleted
function would otherwise fail only there.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
import os

import pytest

import lawson.verify

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
