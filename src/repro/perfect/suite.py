"""Benchmark registry for the 12 PERFECT substitutes (Table I), with a
content-hash-keyed parse cache.

Parsing a benchmark is pure — the same sources always yield the same
AST — so :meth:`Benchmark.program` parses each application **once per
process** and hands out clones of the cached parse, keyed by a SHA-256
of the sources, so editing a benchmark invalidates its entry.  Parsing
all twelve takes a few tens of milliseconds, so there is no disk layer.
:func:`cache_dir` (``REPRO_CACHE_DIR``, default ``.repro_cache/``) is
where other subsystems keep their state files.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence

from repro.annotations.registry import AnnotationRegistry
from repro.obs import metrics as obs_metrics
from repro.program import Program

#: part of every cache key: bump to invalidate parses keyed by an old layout
_CACHE_VERSION = 1

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

#: digest -> pristine parsed Program (never handed out directly)
_PROGRAM_CACHE: Dict[str, Program] = {}


def cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def source_digest(name: str, sources: Mapping[str, str]) -> str:
    """Content hash identifying a parsed program (cache key)."""
    h = hashlib.sha256()
    h.update(f"repro-cache-v{_CACHE_VERSION}:{name}".encode())
    for fname in sorted(sources):
        h.update(b"\x00")
        h.update(fname.encode())
        h.update(b"\x00")
        h.update(sources[fname].encode())
    return h.hexdigest()


def clear_program_cache() -> None:
    """Drop the in-process parse cache."""
    _PROGRAM_CACHE.clear()


@dataclass(frozen=True)
class Benchmark:
    name: str
    description: str
    #: {filename: fortran source text}
    sources: Dict[str, str]
    #: annotation-language source ('' = developer wrote no annotations)
    annotations: str = ""
    #: procedures whose source must be treated as unavailable (external
    #: libraries) — conventional inlining cannot touch them; the unit still
    #: exists so the interpreter can execute the program
    library_units: FrozenSet[str] = frozenset()
    #: values consumed by READ statements
    inputs: Sequence[float] = ()

    def digest(self) -> str:
        return source_digest(self.name, self.sources)

    def program(self) -> Program:
        """A fresh, independently mutable parse of the sources.

        The underlying parse happens once per process per source content;
        callers get a clone, so transformation pipelines can mutate the
        result exactly as if it had been parsed from scratch.
        """
        digest = self.digest()
        lookups = obs_metrics.counter("repro_parse_cache_total",
                                      "parse-cache lookups by outcome")
        base = _PROGRAM_CACHE.get(digest)
        if base is not None:
            lookups.inc(outcome="memory_hit")
        else:
            lookups.inc(outcome="miss")
            base = Program.from_sources(dict(self.sources), self.name)
            base.invalidate()
            _PROGRAM_CACHE[digest] = base
        return base.clone()

    def registry(self) -> AnnotationRegistry:
        return AnnotationRegistry.from_text(self.annotations)


#: module name per benchmark, in Table I order
_MODULES = ["adm", "arc2d", "flo52q", "ocean", "bdna", "mdg",
            "qcd", "trfd", "dyfesm", "mg3d", "track", "spec77"]


def benchmark_names() -> List[str]:
    return [m.upper() for m in _MODULES]


def get_benchmark(name: str) -> Benchmark:
    name = name.lower()
    if name not in _MODULES:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"choose from {benchmark_names()}")
    module = importlib.import_module(f"repro.perfect.{name}")
    return module.BENCHMARK


def all_benchmarks() -> List[Benchmark]:
    return [get_benchmark(m) for m in _MODULES]
