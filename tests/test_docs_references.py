"""Every backticked ``repro.…`` name, plan counter and manifest key in
the docs and docstrings is live.

A dotted name in backticks — plain, as a Sphinx role's target (``~``
allowed), or as a titled role's ``<repro.…>`` target; the forms are
listed in :func:`test_the_scan_reads_every_reference_form` — is a claim
that the object exists. So is a backticked ``…_builds`` / ``…_hits``
counter (a ``PLAN_STATS`` key) and a backticked ``manifest["…"]`` /
``manifest.get("…")`` read (a key some run's manifest carries), and
so is the path table's list of decline reasons, and so is a backticked
test, script, example or benchmark path, with the ``::Name`` it may
carry. This scans the package sources, ``docs/*.md``, ``DESIGN.md``,
``README.md`` and ``EXPERIMENTS.md`` and checks each one, so a rename or
a removal cannot leave a stale reference behind.

The docs also name what exists: DESIGN's CLI row lists the parser's
subcommands and README's Architecture block every subpackage. And
CHANGES.md stays a list of leads, so it cannot regrow into a history.
"""

from __future__ import annotations

import ast
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


#: A repository path: a test, script or example file, or anything under
#: ``benchmarks/``; then the ``::Name`` it may carry.
REPO_PATH = re.compile(
    r"(?<![\w/.])((?:tests|scripts|examples)/[\w/.-]*?\.py|benchmarks/[\w/.-]*)(?:::(\w+))?"
)
#: A plan cache counter.
COUNTER = re.compile(r"\w+_(?:builds|hits)")
#: A manifest read: its (first) key.
MANIFEST_KEY = re.compile(r'manifest(?:\.get\(|\[)"(\w+)"')


def spans():
    """``(file, line, content)`` for every backticked span."""
    for path in scanned_files():
        text = path.read_text(encoding="utf-8")
        for match in SPAN.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield path.relative_to(ROOT), line, match.group(1).strip()


def references():
    """``(file, line, dotted name)`` for every backticked reference."""
    found = []
    for path, line, content in spans():
        name = TARGET.fullmatch(content) or NAME.fullmatch(content)
        if name is not None:
            found.append((path, line, name.group(1)))
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


def defined_names(path: Path) -> set:
    """Every ``def``, ``class`` and assigned name in the Python file ``path``."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    names = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return names | {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_every_backticked_repo_path_exists():
    found = [(file, line, *m.groups()) for file, line, text in spans() for m in REPO_PATH.finditer(text)]
    assert len(found) > 50  # not vacuous: the scan finds the paths
    stale = []
    for file, line, path, name in found:
        target = ROOT / path
        if not target.exists():
            stale.append(f"{file}:{line}: {path}")
        elif name is not None and name not in defined_names(target):
            stale.append(f"{file}:{line}: {path}::{name}")
    assert not stale, "stale paths:\n" + "\n".join(stale)


def test_the_path_scan_reads_every_form():
    text = "`tests/conftest.py::LOOPS`, ``pytest -m tier2 tests/test_claims.py``, `src/repro/cli.py`"
    text += ", `python scripts/cold_pass_gc.py` and `benchmarks/lrcbench/`"
    found = [m.groups() for content in SPAN.findall(text) for m in REPO_PATH.finditer(content)]
    assert found == [
        ("tests/conftest.py", "LOOPS"),
        ("tests/test_claims.py", None),
        ("scripts/cold_pass_gc.py", None),
        ("benchmarks/lrcbench/", None),
    ]


def test_every_backticked_plan_counter_is_live():
    from repro.hb.skeleton import PLAN_STATS

    counters = [(path, line, c) for path, line, c in spans() if COUNTER.fullmatch(c)]
    assert counters  # not vacuous
    stale = [f"{path}:{line}: {c}" for path, line, c in counters if c not in PLAN_STATS]
    assert not stale, "counters PLAN_STATS lacks:\n" + "\n".join(stale)


def test_every_backticked_manifest_key_is_on_some_run():
    """A counting run (on the tape and on the interpreter), a timed run
    and an observed run — each twice, so a cell's record is kept and
    read — carry between them every key the docs read."""
    from repro.config import SimConfig
    from repro.network.link import LinkModel
    from repro.obs.probe import RecordingProbe
    from repro.obs.sinks import MemorySink
    from repro.simulator.engine import Engine
    from tests.conftest import small_trace

    trace = small_trace("water")
    config = SimConfig(n_procs=trace.n_procs, page_size=1024)
    live = set()
    for options, make_probe in (
        ({}, None),
        ({"record_values": True}, None),
        ({"link_model": LinkModel.ideal()}, None),
        ({}, lambda: RecordingProbe([MemorySink()])),
    ):
        for _ in range(2):
            probe = make_probe() if make_probe else None
            live.update(Engine(trace, config.with_options(**options), "LU", probe=probe).run().manifest)
    assert {"record", "network", "decline_reason", "timings_s"} <= live
    keys = [(path, line, key) for path, line, c in spans() for key in MANIFEST_KEY.findall(c)]
    assert keys  # not vacuous
    stale = [f"{path}:{line}: {key}" for path, line, key in keys if key not in live]
    assert not stale, "manifest keys no run carries:\n" + "\n".join(stale)


#: A decline reason as the path table's ``per_event`` row names one:
#: a snake_case name in backticks after a dash.
ROW_REASON = re.compile(r"— `([a-z]+(?:_[a-z]+)+)`")


def test_the_path_table_names_every_decline_reason_in_order():
    """docs/OBSERVABILITY.md's ``per_event`` row names exactly the
    reasons :func:`~repro.protocols.base.certify_replay` returns, in the
    order it checks them."""
    import inspect

    from repro.protocols.base import certify_replay

    returned = re.findall(r'return "per_event", "(\w+)"', inspect.getsource(certify_replay))
    assert len(returned) == 3  # not vacuous: the scan finds the reasons
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    (row,) = [line for line in text.splitlines() if line.startswith("| `per_event` |")]
    assert ROW_REASON.findall(row) == returned


def changes_entries():
    """Each top-level ``- `` entry of CHANGES.md with its sub-bullets."""
    entries = []
    for line in (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("- "):
            entries.append([])
        if entries:
            entries[-1].append(line)
    return ["\n".join(lines) for lines in entries]


def test_changes_entries_are_leads():
    """A CHANGES.md entry is one lead of at most 200 words; pin lists,
    bench tables and review rounds belong in the PR, not here."""
    entries = changes_entries()
    assert len(entries) > 30  # not vacuous: the scan finds the entries
    words = {entry[:60]: len(entry.split()) for entry in entries}
    long = [f"{head}… ({count} words)" for head, count in words.items() if count > 200]
    assert not long, "entries over 200 words:\n" + "\n".join(long)


def test_the_design_cli_row_names_every_subcommand():
    import argparse

    from repro.cli import build_parser

    actions = build_parser()._actions
    (subparsers,) = [action for action in actions if isinstance(action, argparse._SubParsersAction)]
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    (row,) = [line for line in text.splitlines() if line.startswith("| CLI |")]
    assert re.findall(r"`(\w+)`", row.split("|")[3]) == list(subparsers.choices)


def test_the_readme_architecture_block_names_every_subpackage():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Architecture", 1)[1].split("```")[1]
    named = set(re.findall(r"^  (\w+)/", block, re.MULTILINE))
    packages = {path.parent.name for path in (ROOT / "src" / "repro").glob("*/__init__.py")}
    assert packages and named == packages
