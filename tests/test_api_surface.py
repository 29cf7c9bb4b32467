"""Public-API hygiene: exports resolve, are documented, and docs build."""

import importlib
import inspect
import pathlib
import runpy

import pytest

#: One list: the modules the API reference documents are the modules
#: whose exports are checked.
GENERATOR = runpy.run_path(str(
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts" / "gen_api_docs.py"))
MODULES = GENERATOR["MODULES"]


def test_every_package_is_documented():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    packages = {f"repro.{init.parent.name}"
                for init in src.glob("*/__init__.py")}
    documented = {name for name in MODULES if name != "repro"
                  and hasattr(importlib.import_module(name), "__path__")}
    assert packages == documented


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_is_sorted(module_name):
    module = importlib.import_module(module_name)
    exported = list(getattr(module, "__all__", []))
    assert exported == sorted(exported), f"{module_name}.__all__ unsorted"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            if not inspect.getdoc(value):
                undocumented.append(name)
    assert not undocumented, (
        f"{module_name} exports undocumented items: {undocumented}"
    )


def test_api_doc_generator_runs():
    # Render to a string without touching the repo's docs/.
    text = GENERATOR["render"]()
    assert "# API reference" in text
    assert "`repro.core`" in text
    assert "RealTimeRouter" in text


def test_api_doc_is_current():
    # docs/api.md is what the generator renders from today's exports;
    # regenerate it with `python scripts/gen_api_docs.py`.
    doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
    assert doc.read_text() == GENERATOR["render"](), (
        "docs/api.md is stale: run python scripts/gen_api_docs.py")
