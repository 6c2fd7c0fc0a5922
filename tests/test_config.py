"""The numeric settings are fixed: no layer takes them as a parameter."""

import importlib
import inspect

import pytest

MODULES = (
    "admissibility", "polynomials", "hypergeometric", "ktypes",
    "operators", "structure", "verify", "cli",
)


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("short", MODULES)
def test_no_public_function_takes_tol_or_fd(short):
    module = importlib.import_module(f"singular_weyl.{short}")
    found = [
        name
        for name, fn in _public_callables(module)
        if {"tol", "fd"} & set(inspect.signature(fn).parameters)
    ]
    assert found == []

