#!/usr/bin/env python3
"""Path-free entry point: ``python3 benchmarks/lrcbench/run.py ...``.

Puts the repo root and ``src/`` on ``sys.path`` itself, so the command
in ``BENCHMARK.json`` needs no ``PYTHONPATH``. Exits 2 when the program
under test is not there to import.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"lrcbench: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.lrcbench.cli import main

    sys.exit(main())
