"""Arbitrary fixed-form Fortran in, annotated source out.

The frontend itself is :mod:`repro.fortran.parser` — one reader,
classifier and structurer whose *recording* diagnostic sink
(:func:`parse_source_tolerant`) boxes unclassifiable statements as
:class:`~repro.fortran.ast.Opaque` markers and implicitly closes
unterminated blocks, where the strict sink (``parse_source``) raises.
This package is the import surface for ingesting real-world sources:
that entry point and its :class:`Diagnostic` records, plus
:func:`parallelize_source`, which runs the full paper pipeline (parse ->
annotation inference -> Polaris -> OpenMP unparse) over the recovered
tree and returns annotated source plus per-loop decision records.

See ``docs/frontend.md`` for the dialect table and recovery semantics.
"""

from repro.fortran.diagnostics import SEVERITIES, Diagnostic, DiagnosticSink
from repro.fortran.parser import parse_source_tolerant

from .pipeline import parallelize_source

__all__ = [
    "Diagnostic",
    "DiagnosticSink",
    "SEVERITIES",
    "parallelize_source",
    "parse_source_tolerant",
]
