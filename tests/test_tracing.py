"""The benchmark's tracer wraps library functions and methods by name.

A wrapped name that is renamed or deleted makes `Tracer.install()` fail,
and `uninstall()` must put every original back, or a traced pass would
leave the library patched for the ops that follow it.
"""

import importlib.util
import inspect
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every loaded padicprob module and every class defined in one (the
    tracer itself imports the modules it patches)."""
    mods = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "padicprob"]
    classes = {
        cls for mod in mods for _, cls in inspect.getmembers(mod, inspect.isclass)
        if cls.__module__.startswith("padicprob")
    }
    return mods + sorted(classes, key=lambda c: (c.__module__, c.__qualname__))


def _bindings():
    return {(id(owner), key): value for owner in _namespaces() for key, value in vars(owner).items()}


def test_install_then_uninstall_restores_every_attribute():
    tracer = _load_tracing().Tracer()
    before = _bindings()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original
        changed = {k for k, v in _bindings().items() if before.get(k) is not v}
        assert changed == {(id(owner), attr) for owner, attr, _ in patches}
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
