"""Benchmark registry for the 12 PERFECT substitutes (Table I), with a
content-hash-keyed parse cache.

Parsing a benchmark is pure — the same sources always yield the same
AST — so :meth:`Benchmark.program` parses each application **once per
process** and hands out clones of the cached parse.  An optional on-disk
pickle cache (enable with ``REPRO_DISK_CACHE=1``; directory from
``REPRO_CACHE_DIR``, default ``.repro_cache/``) makes cold starts skip
the frontend entirely; entries are keyed by a SHA-256 of the sources, so
editing a benchmark invalidates its entry automatically.  Delete the
directory (or call :func:`clear_program_cache` with ``disk=True``) to
clear it.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from repro.annotations.registry import AnnotationRegistry
from repro.obs import metrics as obs_metrics
from repro.program import Program

#: bump when the AST/pickle layout changes so stale disk entries miss
_CACHE_VERSION = 1

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DISK_CACHE_ENV = "REPRO_DISK_CACHE"
DEFAULT_CACHE_DIR = ".repro_cache"

#: digest -> pristine parsed Program (never handed out directly)
_PROGRAM_CACHE: Dict[str, Program] = {}


@dataclass
class CacheStats:
    """Hit/miss counters for a parse-avoidance cache (observable by the
    bench gate, which records hit rates next to wall-clock numbers)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    def hit_rate(self) -> float:
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return (self.memory_hits + self.disk_hits) / lookups

    def reset(self) -> None:
        self.memory_hits = self.disk_hits = self.misses = 0

    def as_dict(self) -> Dict[str, float]:
        return {"memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate(), 4)}


#: counters for ``Benchmark.program()`` lookups in this process
PROGRAM_CACHE_STATS = CacheStats()


def cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def disk_cache_enabled() -> bool:
    value = os.environ.get(DISK_CACHE_ENV, "").strip().lower()
    return value in ("1", "true", "yes", "on")


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


def clear_program_cache(disk: bool = False) -> None:
    """Drop the in-process parse cache (and the disk cache if asked)."""
    _PROGRAM_CACHE.clear()
    if disk:
        shutil.rmtree(cache_dir(), ignore_errors=True)


def _disk_path(digest: str) -> str:
    return os.path.join(cache_dir(), f"{digest}.pkl")


def _evict_disk(path: str) -> None:
    """Drop an unreadable cache entry so later runs don't re-trip on it."""
    try:
        os.remove(path)
    except OSError:
        pass


def _load_disk(digest: str) -> Optional[Program]:
    if not disk_cache_enabled():
        return None
    path = _disk_path(digest)
    try:
        with open(path, "rb") as fh:
            program = pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception:
        # corrupt or truncated entry (a concurrent writer that died
        # mid-write, a partial disk): evict it and reparse
        _evict_disk(path)
        return None
    if not isinstance(program, Program):
        _evict_disk(path)
        return None
    program.invalidate()  # symbol-table cache keys are per-process ids
    return program


def _store_disk(digest: str, program: Program) -> None:
    if not disk_cache_enabled():
        return
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir(), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(program, fh, pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, _disk_path(digest))
    except Exception:
        pass  # the cache is best-effort; parsing always works


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
            PROGRAM_CACHE_STATS.memory_hits += 1
            lookups.inc(outcome="memory_hit")
        else:
            base = _load_disk(digest)
            if base is not None:
                PROGRAM_CACHE_STATS.disk_hits += 1
                lookups.inc(outcome="disk_hit")
            else:
                PROGRAM_CACHE_STATS.misses += 1
                lookups.inc(outcome="miss")
                base = Program.from_sources(dict(self.sources), self.name)
                base.invalidate()
                _store_disk(digest, base)
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
