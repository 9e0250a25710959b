"""Every exported name must resolve, so a stale entry fails fast."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import xenopower

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(xenopower.__path__) if not info.name.startswith("_")
)


def test_package_exports_resolve():
    missing = [name for name in xenopower.__all__ if not hasattr(xenopower, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"xenopower.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
