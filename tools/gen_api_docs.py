#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every ``repro`` module, extracts the first paragraph of each
module / public class / public function docstring, and renders a
single-page markdown reference.  Regenerate after API changes::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil

import repro

OUT = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def class_members(cls) -> list[str]:
    """One bullet per public method, classmethod, staticmethod or property."""
    out = []
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        doc = inspect.getdoc(getattr(cls, name, None))
        if isinstance(member, property):
            out.append(f"- property `{name}` — {first_paragraph(doc)}")
        elif isinstance(member, (classmethod, staticmethod)):
            kind = type(member).__name__
            sig = signature_of(getattr(cls, name))
            out.append(f"- {kind} `{name}{sig}` — {first_paragraph(doc)}")
        elif inspect.isfunction(member):
            out.append(
                f"- `{name}{signature_of(member)}` — {first_paragraph(doc)}"
            )
    return out


def walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


def render() -> str:
    lines = [
        "# repro API reference",
        "",
        "_Generated by `python tools/gen_api_docs.py`; edit docstrings, "
        "not this file._",
        "",
    ]
    for module in sorted(walk_modules(), key=lambda m: m.__name__):
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        lines.append(first_paragraph(module.__doc__))
        lines.append("")
        members = [
            (name, obj)
            for name, obj in sorted(vars(module).items())
            if not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and getattr(obj, "__module__", None) == module.__name__
        ]
        for name, obj in members:
            if inspect.isclass(obj):
                lines.append(f"### class `{name}`")
                lines.append("")
                lines.append(first_paragraph(obj.__doc__))
                lines.append("")
                entries = class_members(obj)
                lines.extend(entries)
                if entries:
                    lines.append("")
            else:
                lines.append(
                    f"### `{name}{signature_of(obj)}`"
                )
                lines.append("")
                lines.append(first_paragraph(obj.__doc__))
                lines.append("")
    return "\n".join(lines) + "\n"


def main() -> None:
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(render())
    print(f"wrote {OUT} ({len(OUT.read_text().splitlines())} lines)")


if __name__ == "__main__":
    main()
