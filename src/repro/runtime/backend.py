"""Backend selection for the runtime: tree-walker vs compiled closures.

Two interchangeable execution backends implement the identical observable
semantics (output, COMMON memory, cost accounting, recorded region tree,
stop messages, error messages); neither prices anything — cost under a
machine is :func:`repro.runtime.machine.price` of the recorded tree:

* ``tree`` — :class:`~repro.runtime.interpreter.Interpreter`, the
  reference tree-walker and differential oracle;
* ``compiled`` — :class:`~repro.runtime.compiler.CompiledInterpreter`,
  the lower-once/execute-many closure backend (about 11x faster on the
  programs Figure 20 executes; see docs/runtime.md).

The process-wide default comes from the ``REPRO_BACKEND`` environment
variable; code
paths that construct interpreters go through :func:`make_interpreter` so
one switch covers the experiments, the service, the fuzzer and the CLI.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.program import Program

# the backends (and numpy with them) are imported inside
# :func:`make_interpreter`, so a process that only validates a backend
# name does not load them
if TYPE_CHECKING:
    from repro.runtime.interpreter import Interpreter

BACKEND_ENV = "REPRO_BACKEND"
BACKENDS = ("tree", "compiled")
DEFAULT_BACKEND = "compiled"

_metrics = None


def _get_metrics():
    global _metrics
    if _metrics is None:
        from repro.obs.metrics import counter
        _metrics = counter("repro_runtime_exec_total",
                           "Interpreter constructions by backend")
    return _metrics


def default_backend() -> str:
    """The backend named by ``REPRO_BACKEND``, or the built-in default."""
    name = os.environ.get(BACKEND_ENV, "").strip().lower()
    if not name:
        return DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV}={name!r}: unknown backend (choose from "
            f"{', '.join(BACKENDS)})")
    return name


def make_interpreter(program: Program, backend: Optional[str] = None,
                     machine: None = None, **kwargs) -> Interpreter:
    """Construct an interpreter for ``program`` on the selected backend.

    ``backend`` overrides the environment; ``kwargs`` are passed through
    to the interpreter constructor unchanged.
    """
    # ``machine`` is accepted, as ``None`` only, because the benchmark
    # harness (bench/benchlib/workloads/figure20.py) still passes
    # ``machine=None`` and changes only with a re-baseline of the
    # benchmark; the parameter goes with that re-baseline
    if machine is not None:
        raise TypeError("interpreters do not price: price the recorded "
                        "regions with `repro.runtime.machine.price`")
    name = backend if backend is not None else default_backend()
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r} (choose from "
                         f"{', '.join(BACKENDS)})")
    _get_metrics().inc(backend=name)
    if name == "compiled":
        from repro.runtime.compiler import CompiledInterpreter
        return CompiledInterpreter(program, **kwargs)
    from repro.runtime.interpreter import Interpreter
    return Interpreter(program, **kwargs)
