"""Every public name a module exports resolves, and test-only oracles stay
out of the package (they live in tests/oracles.py)."""

import importlib
import pkgutil

import pytest

import ffdyn
from ffdyn.orbits import FunctionalGraph

MODULES = sorted(m.name for m in pkgutil.iter_modules(ffdyn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ffdyn.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_test_only_oracles_are_not_package_attributes():
    moved = {
        "funcfield": ("standard_S", "product_formula_check", "_support_places",
                      "is_S_integer", "is_S_unit", "reduce_mod"),
        "geometry": ("normalize",),
        "dynamics": ("_bareiss_det",),
    }
    for name, attrs in moved.items():
        module = importlib.import_module(f"ffdyn.{name}")
        assert [a for a in attrs if hasattr(module, a)] == []
    assert [a for a in ("is_S_integer", "is_S_unit", "product_formula_check",
                        "standard_S", "normalize") if hasattr(ffdyn, a)] == []
    assert not hasattr(FunctionalGraph, "period_of")
