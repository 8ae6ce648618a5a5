"""Run provenance: the manifest attached to every simulation result.

A manifest answers "what exactly produced these numbers" — the question
every regression diagnosis starts with: repository revision, full
simulation config, workload identity (app/seed/params), a content
digest of the trace replayed, and wall-clock phase timings. It is a
plain dict so it pickles across sweep workers and serializes to JSON
unchanged.
"""

from __future__ import annotations

import logging
import os
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

logger = logging.getLogger(__name__)

_GIT_SHA_CACHE: Dict[str, Optional[str]] = {}


def git_sha(repo_root: Optional[Path] = None) -> Optional[str]:
    """The current commit SHA, or None outside a git checkout.

    Reads ``.git/HEAD`` (and the ref file it points to) directly instead
    of shelling out — manifests are built once per simulation and a
    subprocess per run would dominate small replays. Cached per root.
    """
    # The default root is resolved on its first lookup only (every run
    # asks), and not with ``Path.resolve()``: on Python 3.9 that leaves
    # a reference cycle behind per call (its recursive closure).
    key = "" if repo_root is None else str(repo_root)
    if key in _GIT_SHA_CACHE:
        return _GIT_SHA_CACHE[key]
    if repo_root is None:
        repo_root = Path(os.path.realpath(__file__)).parents[3]
    sha: Optional[str] = None
    try:
        git_dir = repo_root / ".git"
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref:"):
            ref = head.split(None, 1)[1]
            ref_path = git_dir / ref
            if ref_path.exists():
                sha = ref_path.read_text(encoding="utf-8").strip()
            else:
                packed = git_dir / "packed-refs"
                if packed.exists():
                    for line in packed.read_text(encoding="utf-8").splitlines():
                        if line.endswith(ref) and not line.startswith(("#", "^")):
                            sha = line.split(None, 1)[0]
                            break
        else:
            sha = head
    except OSError:
        logger.debug("no git metadata under %s", repo_root)
    _GIT_SHA_CACHE[key] = sha
    return sha


def config_dict(config) -> Dict[str, object]:
    """A JSON-friendly rendering of a :class:`~repro.config.SimConfig`."""
    link = getattr(config, "link_model", None)
    return {
        "n_procs": config.n_procs,
        "page_size": config.page_size,
        "skip_overwritten_diffs": config.skip_overwritten_diffs,
        "diff_to_invalid_copy": config.diff_to_invalid_copy,
        "free_local_lock_reacquire": config.free_local_lock_reacquire,
        "piggyback_notices": config.piggyback_notices,
        "gc_at_barriers": config.gc_at_barriers,
        "record_values": config.record_values,
        "link_model": link.to_dict() if link is not None else None,
    }


def build_manifest(
    trace,
    config,
    timings: Optional[Dict[str, float]] = None,
    plan_cache: Optional[Dict[str, int]] = None,
    network: Optional[Dict[str, object]] = None,
    execution_path: Optional[str] = None,
    decline_reason: Optional[str] = None,
    record: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Assemble the provenance record for one simulation of ``trace``.

    ``timings`` maps phase name -> seconds (``simulate_s`` always;
    ``compile_s`` when the engine compiled the trace itself; timed runs
    split ``simulate_s`` into the ledger replay, ``record_s`` (merging
    the compute column into a send log the run wrote) and ``fold_s``; a
    tape run under a sink or a span probe adds ``observe_s`` when it
    hands its probe a record stream it wrote or read; callers may add
    ``generate_s``). ``plan_cache`` is this run's delta of the
    batch-plan/tape cache counters (``repro.hb.skeleton.PLAN_STATS``) —
    whether the sync skeleton, priced tapes and cell records were built
    or reused, the first thing to check when two "identical" runs time
    differently. The trace digest is memoized on the stream, so sweeping
    20 cells hashes the columns once. ``network`` is the timed-run
    replay key — the derived ``network_seed`` feeding the loss/jitter
    RNG plus the full link configuration — making lossy runs replayable
    from the manifest alone. ``execution_path`` names the engine loop
    that produced the ledger (``tape``, ``per_event``, or ``reference``
    for the test oracle, ``tests/reference_oracle.py::ReferenceEngine``),
    ``decline_reason`` why it was not the tape replay
    (see :func:`repro.protocols.base.certify_replay`; absent on a tape
    run), and ``record`` which parts of the cell's record the run
    ``recorded`` (wrote and kept) or ``reused`` (read): ``log``, a timed
    run's send log; ``stream``, the record stream a sink or a span probe
    reads; ``priced``, a lazy cell's priced tape or the eager policy's
    a run that writes nothing folds (see :meth:`repro.simulator.engine.Engine._use_record`; a part the
    run wrote without keeping it, or never needed, is absent).
    """
    params = trace.meta.params
    seed = params.get("seed")
    manifest: Dict[str, object] = {
        "git_sha": git_sha(),
        "app": trace.meta.app,
        "seed": int(seed) if seed is not None else None,
        "trace_digest": trace.digest(),
        "trace_events": len(trace),
        "trace_params": dict(params),
        "config": config_dict(config),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if timings:
        manifest["timings_s"] = {name: round(value, 6) for name, value in timings.items()}
    if plan_cache:
        manifest["plan_cache"] = dict(plan_cache)
    if network:
        manifest["network"] = dict(network)
    if execution_path:
        manifest["execution_path"] = execution_path
    if decline_reason:
        manifest["decline_reason"] = decline_reason
    if record:
        manifest["record"] = dict(record)
    return manifest


def _describe_path(path: str, reason: Optional[str]) -> str:
    return path + (f" (tape declined: {reason})" if reason else "")


def execution_line(manifest: Optional[Dict[str, object]]) -> Optional[str]:
    """The ``execution path:`` footer line of ``run`` and ``report``.

    Names the loop that produced the ledger and, when it was not the
    tape replay, what made the run decline it — so a run that took a
    slower path says so where the user is looking.
    """
    path = (manifest or {}).get("execution_path")
    if not path:
        return None
    return "execution path: " + _describe_path(path, manifest.get("decline_reason"))


def execution_paths_line(paths: Dict[Tuple[str, Optional[str]], int]) -> str:
    """The ``execution paths:`` footer line of ``sweep``, from
    :meth:`~repro.simulator.sweep.SweepResult.execution_paths`."""
    return "execution paths: " + ", ".join(
        f"{cells} x {_describe_path(path, reason)}"
        for (path, reason), cells in paths.items()
    )
