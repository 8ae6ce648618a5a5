"""The oracle lives in ``tests/reference_oracle.py``; ``src/`` keeps one
body per lazy hook, one run loop each in ``Engine`` and ``Scheduler``,
and no knob that selects a second implementation. The sync rules are
stated twice, once on each side: ``build_skeleton`` in ``src/``, the
oracle's hooks in the test tree."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro.simulator.engine as engine_module
from repro.protocols.registry import all_protocol_names, protocol_class
from repro.runtime.scheduler import Scheduler

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ORACLE = Path(__file__).resolve().parent / "reference_oracle.py"


def bound_names(path: Path):
    """Each def, class, parameter, keyword and assignment target in the
    module at ``path``, and ``import M`` for each module M it imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            yield node.id if isinstance(node, ast.Name) else node.attr
        elif isinstance(node, ast.ImportFrom):
            yield f"import {node.module}"
        elif isinstance(node, ast.Import):
            yield from (f"import {alias.name}" for alias in node.names)


@pytest.mark.parametrize("protocol", all_protocol_names())
def test_bind_interpreter_takes_no_argument(protocol):
    assert list(inspect.signature(protocol_class(protocol).bind_interpreter).parameters) == ["self"]


def test_engine_and_scheduler_have_one_run_loop():
    assert not hasattr(engine_module.Engine, "run_reference")
    assert not any(hasattr(Scheduler, name) for name in ("run_reference", "_step", "_execute"))
    assert not any(hasattr(engine_module, name) for name in ("_split_access", "_SPLIT_CACHES"))


def test_src_names_no_oracle_and_imports_no_test():
    """No module of ``src/`` binds a ``_reference`` or ``_indexed`` name or
    a ``reference`` argument, or imports ``tests``."""
    names = {(path, name) for path in SRC.glob("**/*.py") for name in bound_names(path)}
    assert {"bind_interpreter", "_collect_diffs", "import repro.config"} <= {n for _, n in names}
    stale = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path, name in names
        if "_reference" in name or "_indexed" in name or name == "reference"
        or name.split(".")[0] == "import tests"
    )
    assert not stale


def test_sync_rules_live_in_the_skeleton_and_the_oracle_apart():
    """No protocol module takes a notice gap, merges a clock or closes an
    interval in the store (the hooks and kernels replay the skeleton's
    records), and the oracle reads no skeleton, record or fetch planner."""
    stated = sorted(
        f"{path.relative_to(SRC)}:{node.lineno}: .{node.attr}"
        for path in (SRC / "protocols").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and (
            node.attr in ("gap", "merged")
            or node.attr == "close"
            and "store" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
        )
    )
    assert not stated
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"))
    names = {
        name
        for node in ast.walk(tree)
        for name in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
            getattr(node, "module", None),
        )
        if isinstance(name, str)
    }
    borrowed = sorted(
        name
        for name in names
        if "skeleton" in name or name in ("_next_record", "planner_for", "FetchPlanner")
    )
    assert not borrowed
