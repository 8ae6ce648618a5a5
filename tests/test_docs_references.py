"""Every backticked ``repro.…`` name in the docs and docstrings resolves.

A dotted name in backticks — plain, as a Sphinx role's target (``~``
allowed), or as a titled role's ``<repro.…>`` target; the forms are
listed in :func:`test_the_scan_reads_every_reference_form` — is a claim
that the object exists. This scans the package sources, ``docs/*.md``, ``DESIGN.md``,
``README.md`` and ``EXPERIMENTS.md`` and imports each one, so a rename
or a removal cannot leave a stale reference behind.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: One backticked span (single or doubled backticks), on one line.
SPAN = re.compile(r"`+([^`\n]+?)`+")
#: A dotted name, ``~`` allowed, a call's arguments ignored.
NAME = re.compile(r"~?(repro(?:\.\w+)+)(?:\(.*\))?")
#: A titled role's target: ``Title <repro.…>``.
TARGET = re.compile(r".*<(repro(?:\.\w+)+)>")


def scanned_files():
    files = sorted((ROOT / "src").glob("**/*.py")) + sorted((ROOT / "docs").glob("*.md"))
    return files + [ROOT / name for name in ("DESIGN.md", "README.md", "EXPERIMENTS.md")]


def references():
    """``(file, line, dotted name)`` for every backticked reference."""
    found = []
    for path in scanned_files():
        text = path.read_text(encoding="utf-8")
        for match in SPAN.finditer(text):
            content = match.group(1).strip()
            name = TARGET.fullmatch(content) or NAME.fullmatch(content)
            if name is not None:
                line = text.count("\n", 0, match.start()) + 1
                found.append((path.relative_to(ROOT), line, name.group(1)))
    return found


def resolve(name: str):
    """Import the longest module prefix of ``name``, then walk its
    attributes; raises when any part is missing."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(name)


def test_every_backticked_repro_name_resolves():
    refs = references()
    assert len(refs) > 150  # not vacuous: the scan finds the references
    stale = []
    for path, line, name in refs:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            stale.append(f"{path}:{line}: {name}")
    assert not stale, "stale references:\n" + "\n".join(stale)


def test_the_scan_reads_every_reference_form():
    forms = (
        "`repro.hb.skeleton.batch_plan`",
        ":class:`~repro.hb.skeleton.PricedTape`",
        ":meth:`fold <repro.protocols.base.Protocol._fold>`",
        "``repro.obs.logging_setup(verbosity)``",
    )
    names = []
    for form in forms:
        (content,) = SPAN.findall(form)
        names.append((TARGET.fullmatch(content) or NAME.fullmatch(content)).group(1))
    assert names == [
        "repro.hb.skeleton.batch_plan",
        "repro.hb.skeleton.PricedTape",
        "repro.protocols.base.Protocol._fold",
        "repro.obs.logging_setup",
    ]
    with pytest.raises(AttributeError):
        resolve("repro.hb.skeleton.LazyTape")  # a removed class
