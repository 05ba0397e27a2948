"""End-to-end ``parallelize_source``: tolerant parse -> inline ->
Polaris -> OpenMP unparse, with per-loop explanations.

This is the service/CLI entry point behind ``repro parallelize FILE.f``
and the ``{"kind": "parallelize"}`` job payload: a strict or tolerant
parse in front of the one Figure-15 pipeline
(:func:`repro.pipeline.parallelize_program`), and a JSON-ready rendering
of what it returns.  In tolerant mode it accepts real-world fixed-form
input: dialect constructs the strict
frontend rejects become conservative IR (EQUIVALENCE, computed/assigned
GOTO, ENTRY, alternate returns, CHARACTER substrings), and outright
malformed statements become :class:`~repro.fortran.ast.Opaque` markers —
both analyzed as "may touch anything", so every verdict stays sound.

The returned mapping is JSON-ready (service responses forward it as-is):

``output``
    the annotated source (OpenMP directives inserted);
``diagnostics``
    recovery actions from the tolerant frontend, one dict per action;
``loops``
    one dict per analyzed loop — the
    :class:`~repro.trace.decisions.LoopDecision` record plus its
    human-readable ``explanation``;
``parallel_count``
    loops that received a directive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.annotations import AnnotationRegistry
from repro.fortran import ast
from repro.fortran.parser import parse_source_tolerant
from repro.pipeline import Config, PipelineResult, parallelize_program
from repro.polaris.report import merge_timings
from repro.program import Program
from repro.trace import NULL_TRACER, Tracer

__all__ = ["parallelize_files", "parallelize_source"]


def _build_program(sources: Dict[str, str], tolerant: bool,
                   diagnostics: List[dict]) -> Program:
    if not tolerant:
        return Program.from_sources(sources)
    files: List[ast.SourceFile] = []
    for fname, text in sources.items():
        sf, diags = parse_source_tolerant(text, fname)
        files.append(sf)
        diagnostics.extend(d.to_dict() for d in diags)
    prog = Program(files, "parallelize")
    prog.resolve()
    return prog


def parallelize_files(sources: Dict[str, str],
                      config: str = "annotation",
                      annotations_mode: str = "inferred",
                      annotations_text: str = "",
                      tolerant: bool = True,
                      tracer: Optional[Tracer] = None
                      ) -> Tuple[PipelineResult, List[dict]]:
    """Parse a ``{filename: text}`` mapping and run the pipeline over it.

    Returns the pipeline's result (its report's timings include
    ``parse``) and the tolerant frontend's recovery diagnostics, one
    dict per action (none in strict mode).  ``config`` and
    ``annotations_mode`` select the inlining strategy exactly as the CLI
    flags do; an unknown name is a :class:`ValueError` before anything
    is parsed.  Raises :class:`~repro.errors.ReproError` only in strict
    mode (``tolerant=False``), on the first frontend error.
    """
    chosen = Config(config, annotations=annotations_mode)
    diagnostics: List[dict] = []
    parse: Dict[str, float] = {}
    with (tracer or NULL_TRACER).phase("parse", parse):
        program = _build_program(sources, tolerant, diagnostics)
    result = parallelize_program(
        program, chosen, AnnotationRegistry.from_text(annotations_text),
        tracer=tracer)
    merge_timings(result.report.timings, parse)
    return result, diagnostics


def render_result(result: PipelineResult,
                  diagnostics: List[dict]) -> Dict[str, object]:
    """The JSON-ready mapping described in the module docstring."""
    loops = []
    for d in result.report.verdicts:
        rec = d.to_dict()
        rec["explanation"] = d.describe()
        loops.append(rec)
    return {
        "output": result.output,
        "code_lines": len(result.output.splitlines()),
        "diagnostics": diagnostics,
        "loops": loops,
        "parallel_count": result.report.parallel_count(),
        "config": result.config,
        "annotations_mode": result.annotations,
        "units": [u.name for u in result.program.units],
    }


def parallelize_source(sources: Dict[str, str],
                       config: str = "annotation",
                       annotations_mode: str = "inferred",
                       annotations_text: str = "",
                       tolerant: bool = True,
                       tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """:func:`parallelize_files`, rendered by :func:`render_result`.
    The default (``annotation`` + ``inferred``) needs no hand-written
    annotation file, which is the right default for arbitrary ingested
    programs.  ``tracer`` (a traced service job's) records spans and
    the same loop records the result renders.
    """
    result, diagnostics = parallelize_files(
        sources, config, annotations_mode, annotations_text, tolerant,
        tracer)
    return render_result(result, diagnostics)
