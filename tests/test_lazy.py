"""The deferred loads of numpy and scipy.linalg's LAPACK and BLAS extensions (``lawson._lazy``).

Each test runs a new interpreter, as the loads happen once per process."""

import os
import subprocess
import sys

import pytest

import lawson

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lawson.__file__)))

# Four threads (more than the cores of a small machine, switching every microsecond), released
# together by one barrier, each run ``first`` as their first call after ``import lawson``; each
# thread's result or exception lands in ``results``, None if it has not ended within a minute.
_AT_ONCE = """
import sys, threading
sys.path.insert(0, {src!r})
import lawson
sys.setswitchinterval(1e-6)
results, start = [None] * 4, threading.Barrier(4)

def run(i):
    start.wait()
    try:
        results[i] = {first}
    except Exception as exc:
        results[i] = f"{{type(exc).__name__}}: {{exc}}"

threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
sys.setswitchinterval(0.005)
"""


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          timeout=120)
    return proc.stdout.strip()


def test_import_places_no_numpy_or_scipy_in_sys_modules():
    out = _run(f"import sys; sys.path.insert(0, {SRC!r}); import lawson; "
               "print([m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')])")
    assert out == "[]"


def test_threads_making_their_first_numeric_call_at_once_get_the_serial_report():
    """Four threads verify T_(1,2,3) at grid 256 as the process's first numeric call: each gets
    the report a later serial call gets."""
    first = "repr(lawson.run_verification(lawson.validate(lawson.Case.GENERALIZED, 1, 2, 3), 256))"
    out = _run(_AT_ONCE.format(src=SRC, first=first)
               + f"serial = {first}; print(results == [serial] * 4, [r for r in results if r != serial])")
    assert out == "True []"


def test_threads_importing_numpy_at_once_after_import_lawson():
    """``import lawson`` leaves ``import numpy`` an ordinary import, which threads may race."""
    first = "float(__import__('numpy').linalg.norm(__import__('numpy').ones(4)))"
    out = _run(_AT_ONCE.format(src=SRC, first=first) + "print(results)")
    assert out == "[2.0, 2.0, 2.0, 2.0]"


def test_stand_ins_become_plain_modules_at_first_use():
    """After the first numeric call, np, lapack and blas are plain modules, whose lookups cost what
    a module's do, holding the very objects of numpy and the extensions."""
    out = _run(
        f"import sys, types; sys.path.insert(0, {SRC!r}); import lawson; from lawson import _lazy; "
        "print(type(_lazy.np).__name__); "
        "lawson.run_verification(lawson.validate(lawson.Case.GENERALIZED, 1, 2, 3), 256); "
        "print(*(type(m) is types.ModuleType for m in (_lazy.np, _lazy.lapack, _lazy.blas)), "
        "_lazy.np.zeros is sys.modules['numpy'].zeros, "
        "_lazy.lapack.dpttrf is sys.modules['scipy.linalg._flapack'].dpttrf, "
        "_lazy.blas.dnrm2 is sys.modules['scipy.linalg._fblas'].dnrm2)")
    assert out.split() == ["_Deferred"] + ["True"] * 6


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_while_a_thread_holds_the_lock_can_load():
    """A thread holds the loader's lock while the main thread forks: the child starts with it free
    and loads numpy, where it would otherwise wait for a thread that does not exist in it."""
    code = f"""
import os, sys, threading, time
sys.path.insert(0, {SRC!r})
from lawson import _lazy
lock, held, done = _lazy._lock, threading.Event(), threading.Event()

def hold():
    with lock:
        held.set()
        done.wait()

threading.Thread(target=hold).start()
held.wait()
pid = os.fork()
if pid == 0:
    os._exit(0 if _lazy.np.ones(3).sum() == 3.0 else 1)
for _ in range(600):
    ended, status = os.waitpid(pid, os.WNOHANG)
    if ended:
        break
    time.sleep(0.05)
else:
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    status = "hung"
done.set()
print(status)
"""
    assert _run(code) == "0"


def test_without_the_extension_files_the_public_scipy_modules_serve():
    """With no file of an extension suffix to be found, lapack and blas load scipy.linalg.lapack
    and .blas, and T_(1,2,3)'s list at l = 1, grid 2048, is bit for bit the file-loaded one."""
    start = f"import sys, importlib.machinery; sys.path.insert(0, {SRC!r}); import lawson, numpy; "
    solve = ("t = lawson.validate(lawson.Case.GENERALIZED, 1, 2, 3); "
             "ev = lawson.sl_spectrum(lawson.SLProblem(t, 1), 2048).eigenvalues; "
             "print('scipy.linalg' in sys.modules, ev.tobytes().hex())")
    no_files = "importlib.machinery.EXTENSION_SUFFIXES = ['.no-such-suffix']; "
    loaded = _run(start + solve).split()
    fallback = _run(start + no_files + solve)
    assert loaded[0] == "False"
    assert fallback.split() == ["True", loaded[1]]
