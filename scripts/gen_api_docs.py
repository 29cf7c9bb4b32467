#!/usr/bin/env python3
"""Generate docs/api.md from the package's public surface.

Walks every ``repro`` subpackage, collects the names each ``__init__``
exports (or the module's public classes/functions), and writes a
one-line-per-item reference from the first docstring line.  Run after
changing the public API:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

MODULES = [
    "repro",
    "repro.core",
    "repro.channels",
    "repro.network",
    "repro.faults",
    "repro.model",
    "repro.traffic",
    "repro.baselines",
    "repro.extensions",
    "repro.observability",
    "repro.reporting",
    "repro.campaign",
    "repro.checkpoint",
    "repro.service",
    "repro.schedulability",
    "repro.experiments",
    "repro.cli",
]


def first_line(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.split("\n", 1)[0].strip()
    return line or "(undocumented)"


def public_names(module) -> list[str]:
    exported = getattr(module, "__all__", None)
    if exported is not None:
        return sorted(exported)
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and getattr(value, "__module__", "").startswith("repro")
        and (inspect.isclass(value) or inspect.isfunction(value))
    )


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `scripts/gen_api_docs.py` — one line per public"
        " item.",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        lines += ["", f"## `{module_name}`", ""]
        summary = first_line(module)
        lines += [summary, ""]
        for name in public_names(module):
            value = getattr(module, name, None)
            if value is None or isinstance(value, (int, str, float)):
                kind = "const"
                description = ""
            elif inspect.isclass(value):
                kind = "class"
                description = first_line(value)
            elif inspect.isfunction(value):
                kind = "func"
                description = first_line(value)
            else:
                kind = "obj"
                description = first_line(value)
            suffix = f" — {description}" if description else ""
            lines.append(f"* `{name}` ({kind}){suffix}")
    return "\n".join(lines) + "\n"


def main() -> int:
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(render())
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
