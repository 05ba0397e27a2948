"""Support library of the frozen benchmark (``bench/run.py``).

Everything here depends only on the standard library; the program under
test (``src/repro``) is imported by the workload modules, through its
public functions only.
"""

import os
import sys

#: root of the checkout the benchmark runs in (``bench/`` sits under it)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
