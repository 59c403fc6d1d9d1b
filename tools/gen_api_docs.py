"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collecting the first paragraph of
each module, class and public-function docstring into one browsable
reference.  Run from the repository root::

    python tools/gen_api_docs.py

The output is committed (docs/API.md) so the reference is readable
without running anything; CI-style regeneration is covered by
``tests/integration/test_docs.py``, which fails if the file drifts from
the code.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

SKIP_MEMBER_PREFIX = "_"


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    lines: list[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def iter_modules():
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."), key=lambda i: i.name
    ):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        yield importlib.import_module(info.name)


def document_module(module) -> list[str]:
    lines = [f"## `{module.__name__}`", "", first_paragraph(module.__doc__), ""]
    members = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith(SKIP_MEMBER_PREFIX):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports documented at their home
        if getattr(obj, "__name__", name) != name:
            continue  # aliases documented under their own name
        if inspect.isclass(obj):
            members.append((f"class `{name}`", first_paragraph(obj.__doc__)))
        elif inspect.isfunction(obj):
            try:
                signature = str(inspect.signature(obj))
            except (TypeError, ValueError):  # pragma: no cover
                signature = "(...)"
            members.append((f"`{name}{signature}`", first_paragraph(obj.__doc__)))
    for title, doc in members:
        lines.append(f"- **{title}** — {doc}")
    if members:
        lines.append("")
    return lines


def generate() -> str:
    out = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py`; do not edit by hand.",
        "One entry per module/class/function: the first docstring paragraph.",
        "",
    ]
    for module in iter_modules():
        out.extend(document_module(module))
    return "\n".join(out).rstrip() + "\n"


def main() -> int:
    target = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(generate(), encoding="utf-8")
    print(f"wrote {target} ({target.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
