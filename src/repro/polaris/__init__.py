"""A Polaris-class automatic loop parallelizer.

Composes the analyses in :mod:`repro.analysis` into loop-by-loop legality
decisions, wraps parallel loops in OpenMP directives, and records a
machine-readable report that the Table II harness consumes.

Public entry point: :class:`repro.polaris.driver.Polaris`.
"""

from repro.polaris.driver import Polaris, PolarisOptions  # noqa: F401
from repro.polaris.report import Report  # noqa: F401
