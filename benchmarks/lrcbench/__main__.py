"""``python -m benchmarks.lrcbench`` (from the repo root, ``PYTHONPATH=src``)."""

import sys

from benchmarks.lrcbench.cli import main

if __name__ == "__main__":
    sys.exit(main())
