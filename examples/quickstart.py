"""Quickstart: annotate one subroutine, parallelize, reverse-inline, run.

This walks the full Figure-15 pipeline on a tiny program whose hot loop
calls an opaque subroutine:

1. without help, the auto-parallelizer must keep the loop serial;
2. a three-line annotation summarizes the callee's side effects;
3. annotation-based inlining + parallelization + reverse inlining yields
   the original program plus one OpenMP directive;
4. the differential tester proves the parallel program equivalent, and
   pricing the run's recorded parallel regions on the simulated 8-thread
   machine shows the speedup.

Run:  python examples/quickstart.py
"""

from repro.annotations import (AnnotationInliner, AnnotationRegistry,
                               ReverseInliner)
from repro.fortran.unparser import unparse
from repro.polaris import Polaris
from repro.program import Program
from repro.runtime.difftest import diff_test
from repro.runtime.interpreter import Interpreter
from repro.runtime.machine import INTEL_MAC
from repro.runtime.machine import price

SOURCE = """
      PROGRAM QUICK
      COMMON /DATA/ A(200,64), ROW(64)
      DO 10 I = 1, 200
        CALL SMOOTH(I, 64)
   10 CONTINUE
      TOTAL = 0.0
      DO 20 I = 1, 200
        TOTAL = TOTAL + A(I,32)
   20 CONTINUE
      WRITE(6,*) TOTAL
      END
      SUBROUTINE SMOOTH(I, N)
      COMMON /DATA/ A(200,64), ROW(64)
      DO 5 J = 1, N
        ROW(J) = I*0.5 + J
    5 CONTINUE
      DO 6 J = 1, N
        A(I,J) = ROW(J)*0.25
    6 CONTINUE
      RETURN
      END
"""

# the developer's summary: SMOOTH scratches ROW, then writes row I of A
ANNOTATIONS = """
subroutine SMOOTH(I, N) {
  ROW = unknown(I, N);
  do (J = 1:N)
    A[I, J] = unknown(ROW, J);
}
"""


def main() -> None:
    registry = AnnotationRegistry.from_text(ANNOTATIONS)

    print("=" * 70)
    print("1. Without annotations: the call keeps the I loop serial")
    print("=" * 70)
    baseline = Program.from_source(SOURCE)
    report = Polaris().run(baseline)
    for v in report.verdicts:
        print("  ", v.describe())

    print()
    print("=" * 70)
    print("2-3. Annotation-based inlining -> Polaris -> reverse inlining")
    print("=" * 70)
    program = Program.from_source(SOURCE)
    AnnotationInliner(registry).run(program)
    report = Polaris().run(program)
    ReverseInliner(registry).run(program)
    for v in report.verdicts:
        print("  ", v.describe())
    print()
    print("Final program (the original source + OpenMP):")
    print(unparse(program.files[0]))

    print("=" * 70)
    print("4. Runtime verification and simulated speedup")
    print("=" * 70)
    check = diff_test(program)
    print("  differential test:", check.explain())
    serial = Interpreter(program, honor_directives=False).run()
    regions = Interpreter(program).run().regions
    parallel, _per_site = price(regions, INTEL_MAC)
    print(f"  serial cost   : {serial.cost:12.0f} work units")
    print(f"  parallel cost : {parallel:12.0f} work units "
          f"({INTEL_MAC.threads} threads)")
    print(f"  speedup       : {serial.cost / parallel:.2f}x")


if __name__ == "__main__":
    main()
