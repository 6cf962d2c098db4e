"""Shared fixtures: every test starts with cold generating-function caches.

The caches in the package (the widest-order series caches of ``qft``, the
order-free M₁ polynomials of ``relations`` and their per-order checks) would
otherwise carry results from one test into the next, so a test that
monkeypatches a function could read a value computed before its patch.
"""

import importlib
import pkgutil

import pytest

import nrooted

MODULES = [
    importlib.import_module(f"nrooted.{info.name}")
    for info in pkgutil.iter_modules(nrooted.__path__)
]


def package_caches() -> list:
    """Every cache bound at module level in the package (anything with ``cache_clear``)."""
    found = {}
    for module in [nrooted, *MODULES]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                found[id(obj)] = obj
    return list(found.values())


def clear_package_caches() -> None:
    for cache in package_caches():
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    clear_package_caches()


@pytest.fixture
def clear_caches():
    """The cache-clearing function, for a test that needs a cold start midway."""
    return clear_package_caches
