"""Committed references (``bench/expected/<workload>.json``) and digests.

A reference never comes from the path a measurement run times: the files
are written by ``run.py --write-expected`` only after the independent
cross-checks listed in ``README.md`` passed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "expected")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(obj: Any) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    return sha256_text(json.dumps(obj, sort_keys=True,
                                  separators=(",", ":")))


def sources_digest(sources: Dict[str, str]) -> str:
    """Digest of a ``{filename: text}`` input."""
    return digest(sorted(sources.items()))


def path_for(workload: str, directory: str = EXPECTED_DIR) -> str:
    return os.path.join(directory, f"{workload}.json")


def load(workload: str, directory: str = EXPECTED_DIR) -> Dict[str, Any]:
    with open(path_for(workload, directory), encoding="utf-8") as fh:
        return json.load(fh)


def save(workload: str, data: Dict[str, Any],
         directory: str = EXPECTED_DIR) -> str:
    os.makedirs(directory, exist_ok=True)
    path = path_for(workload, directory)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
