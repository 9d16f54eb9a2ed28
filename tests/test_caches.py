"""One scalar memo: forms._SCALARS. The calculus maps are uncached oracles,
and no other memo may come back unnoticed."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import qforms


def memoized(value) -> bool:
    # functools caches carry cache_info, also behind a classmethod or staticmethod
    return hasattr(value, "cache_info") or hasattr(getattr(value, "__func__", None), "cache_info")


def test_only_the_cli_parser_is_memoized():
    # every module's attributes, and the attributes of the classes it defines
    names = [f"qforms.{info.name}" for info in pkgutil.iter_modules(qforms.__path__)]
    found = set()
    for module in [qforms, *map(importlib.import_module, names)]:
        for name, value in vars(module).items():
            if memoized(value):
                found.add(f"{module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if memoized(member):
                        found.add(f"{module.__name__}.{name}.{attr}")
    assert found == {"qforms.cli._build_parser"}


@pytest.mark.parametrize("name", ["qforms.forms", "qforms.parser"])
def test_kernel_and_parser_import_no_scalar_function_from_calculus(name):
    # CalculusConfig, a class, is the only name they may take from calculus
    imported = [
        attr
        for attr, value in vars(importlib.import_module(name)).items()
        if inspect.isfunction(value) and value.__module__ == "qforms.calculus"
    ]
    assert imported == []
