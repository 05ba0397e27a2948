#!/usr/bin/env python
"""Runtime backend smoke check (used by CI, runnable locally).

Runs one PERFECT benchmark end to end under BOTH runtime backends and
asserts the compiled closure backend is a bit-exact stand-in for the
tree-walker:

1. serial execution: identical output lines, simulated cost, stop
   message, and COMMON contents (compared via ``tobytes()``, so
   ``-0.0`` vs ``0.0`` or NaN payload differences fail);
2. the full three-mode differential check
   (:func:`repro.runtime.difftest.backend_equivalence`) on the same
   benchmark after the annotation pipeline has parallelized it;
3. the compile-template cache actually serves repeat constructions;
4. a hand-written directive program (a private scalar temporary, and a
   nest whose private row buffer the launch copies per lane) agrees in
   all three modes, region trees included, with the honoured directive
   loops committed by the vector kernel in program order and by no
   kernel under the permuted schedule;
5. BDNA under ``conventional`` — the ``TSTEP**2`` operand and the
   ``T(IX(7)+...)`` subscript, both admitted to the kernel by invariance,
   in one program —, SPEC77 under ``none`` — ``SYNTH``'s row reduction,
   64 inner loops on one launch — and DYFESM under ``annotation`` — a
   varying INTEGER division beside an inner loop whose stores move on
   both axes — agree in all three modes, their kernels committing the
   steps, in the launches and with the refusals of ``KERNEL_COUNTS``;
6. ``repro run --machine intel-mac`` on the directive program prints the
   cost :func:`repro.runtime.machine.price` gives its recorded regions;
7. the recorder hash-conses: SPEC77 ``none`` and DYFESM ``annotation``
   record the distinct nodes of ``NODE_COUNTS`` for their region
   executions, and ``decide`` on both machines gives the same result
   over the shared profile as over the same tree rebuilt node by node;
8. DATA-initialised and SAVE-listed locals keep their values between
   calls: ``SAVED_LOCALS`` prints 1 2 1 2 under both backends, bit for
   bit alike;
9. one program per shape a launch took from Figure 20's per-iteration
   loops — ADM's carried inner loop, stepped; FLO52Q's MAX reduction;
   BDNA's left-associated chain; MDG's private row buffer — agrees in
   all three modes and commits in the launches of ``SHAPES``;
10. ``WALKED`` — every statement the compiled backend leaves to the
    tree-walker's ``_exec_stmt`` and every expression it leaves to
    ``_eval`` — agrees in all three modes and stops with its message.

Usage:
  PYTHONPATH=src python scripts/runtime_smoke.py [BENCHMARK]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

FAILURES = []

OMP = "!$OMP PARALLEL DO DEFAULT(SHARED)"
DIRECTIVE_KERNELS = "\n".join([
    "      PROGRAM SMOKE",
    "      COMMON /D/ A(6, 8), B(6, 8), C(48), T",
    "      DIMENSION ROW(8)",
    OMP + " PRIVATE(I,J,ROW)",
    "      DO 30 I = 1, 6",
    OMP + " PRIVATE(J)",
    "        DO 10 J = 1, 8",
    "          ROW(J) = I + J*0.25",
    "   10   CONTINUE",
    "!$OMP END PARALLEL DO",
    "        DO 20 J = 1, 8",
    "          B(I, J) = ROW(J)*2",
    "   20   CONTINUE",
    "   30 CONTINUE",
    "!$OMP END PARALLEL DO",
    OMP + " PRIVATE(K,T)",
    "      DO 40 K = 1, 48",
    "        T = K*0.5",
    "        C(K) = T*T",
    "   40 CONTINUE",
    "!$OMP END PARALLEL DO",
    "      WRITE(*,*) T, B(6, 8), C(48)",
    "      END", ""])
#: statement steps per mode: loop 30 is one launch of 6 x (2 x 8 twice,
#: two headers and a CONTINUE), loop 40 runs 3 x 48; permuted runs keep
#: only directive-free loop 20
KERNEL_STEPS = {"sequential": 6 * 35 + 144, "permuted": 6 * 16}


#: (benchmark, configuration, (kernel steps, steps, launches, refusals))
#: with directives honoured (BDNA's energy chain is its 11th launch);
#: DYFESM's refusal is the interval check's false positive on the
#: interleaved XYG(1,ID) / XYG(2,ID) stores
KERNEL_COUNTS = [("BDNA", "conventional", (38_800, 38_851, 11, 0)),
                 ("SPEC77", "none", (258_304, 262_272, 27, 0)),
                 ("DYFESM", "annotation", (58_964, 67_158, 127, 1))]


#: S's DATA-initialised K and T's SAVE-listed M, each bumped per call
SAVED_LOCALS = "\n".join([
    "      PROGRAM KEPT",
    "      CALL S", "      CALL S", "      CALL T", "      CALL T",
    "      END",
    "      SUBROUTINE S",
    "      INTEGER K",
    "      DATA K /0/",
    "      K = K + 1",
    "      PRINT *, K",
    "      END",
    "      SUBROUTINE T",
    "      SAVE M",
    "      M = M + 1",
    "      PRINT *, M",
    "      END", ""])


def _shape(*lines):
    return "\n".join(["      PROGRAM SHAPE", *lines, "      END", ""])


#: one program per shape -> (its launches, refusals): a fill launch and
#: the loop Figure 20 used to run per iteration, now one launch
SHAPES = {
    "stepped carried inner loop (ADM)": (_shape(
        "      COMMON /D/ C(12, 8)",
        "      I = 0", "      K = 0",
        "      DO 5 K = 1, 8", "        DO 5 I = 1, 12",
        "          C(I, K) = I*0.01 + K*0.002", "    5 CONTINUE",
        OMP + " PRIVATE(I)",
        "      DO 44 K = 1, 8", "        DO 43 I = 2, 11",
        "          C(I,K) = C(I,K) + (C(I-1,K) - 2.0*C(I,K) + C(I+1,K))*0.1",
        "   43   CONTINUE", "   44 CONTINUE", "!$OMP END PARALLEL DO",
        "      WRITE(*,*) C(2, 1), C(11, 8)"), (2, 0)),
    "MAX reduction (FLO52Q)": (_shape(
        "      COMMON /D/ Q(12, 8), R",
        "      J = 0", "      K = 0",
        "      DO 5 K = 1, 8", "        DO 5 J = 1, 12",
        "          Q(J, K) = J*0.5 - K", "    5 CONTINUE",
        "      R = 0.0",
        OMP + " PRIVATE(J) REDUCTION(MAX:R)",
        "      DO 30 K = 1, 8", "        DO 28 J = 1, 12",
        "          R = MAX(R, ABS(Q(J,K) - 0.25))",
        "   28   CONTINUE", "   30 CONTINUE", "!$OMP END PARALLEL DO",
        "      WRITE(*,*) R"), (2, 0)),
    "left-associated chain (BDNA)": (_shape(
        "      COMMON /D/ FX(40), FY(40), E",
        "      DO 5 I = 1, 40", "        FX(I) = I*0.01",
        "        FY(I) = I*0.02 - 0.3", "    5 CONTINUE",
        "      E = 0.0",
        OMP + " REDUCTION(+:E)",
        "      DO 25 I = 1, 40", "        E = E+FX(I)*FX(I)-FY(I)*FY(I)",
        "   25 CONTINUE", "!$OMP END PARALLEL DO",
        "      WRITE(*,*) E"), (2, 0)),
    "private row buffer (MDG)": (_shape(
        "      COMMON /D/ X(20), F(20)",
        "      DIMENSION ROW(9)",
        "      DO 5 I = 1, 20", "        X(I) = I*0.01", "    5 CONTINUE",
        OMP + " PRIVATE(J,ROW)",
        "      DO 44 I = 1, 20",
        OMP, "        DO 42 J = 1, 9", "          ROW(J) = X(I)*0.1 + J",
        "   42   CONTINUE", "!$OMP END PARALLEL DO",
        "        F(I) = F(I) + ROW(5)*0.001",
        "   44 CONTINUE", "!$OMP END PARALLEL DO",
        "      WRITE(*,*) F(1), F(20), ROW(5)"), (2, 0)),
}


#: what the closures leave to the tree-walker: the statements READ,
#: ASSIGN, computed and assigned GOTO (out of a directive body too), a
#: region store, PRINT and STOP, and the expressions a user FUNCTION
#: reference, an intrinsic and a unary minus over one, .AND., .OR., a
#: region read, a division only the run can type (in TYPED, never
#: executed) and a lazily shaped array's element, W(I): the declaration's
#: NF(8) is the FUNCTION reference that shapes W at its first touch
WALKED = "\n".join([
    "      PROGRAM WALKED",
    "      COMMON /C/ CALLS",
    "      COMMON /D/ A(8), X, Y, N, L",
    "      DIMENSION W(NF(8))",
    "      READ(*,*) X, N",
    "      ASSIGN 30 TO L",
    "      W(1) = 2.0",
    OMP + " PRIVATE(I)",
    "      DO 20 I = 1, NF(6)",
    "        A(NF(I)) = -NF(I) + ABS(NF(I) - 3.5) + W(I)",
    "        IF (A(I) .LT. 0.0 .AND. NF(I) .GT. 2) THEN",
    "          A(I) = A(I) + A(2:3)",
    "        ELSE IF (I .EQ. 1 .OR. NF(I) .EQ. 4) THEN",
    "          A(I) = A(I) - 1.0",
    "        END IF",
    "        GOTO (20, 10), MOD(I, 2) + 1",
    "   10   A(I) = A(I) * 2.0",
    "   20 CONTINUE",
    "!$OMP END PARALLEL DO",
    "      A(7:8) = 1.5",
    "      GOTO L, (30, 40)",
    "   30 PRINT *, A(1), A(6), A(8), NF(N), CALLS",
    "   40 CALL TYPED(N)",
    "      STOP 'WALKED'",
    "      END",
    "      INTEGER FUNCTION NF(K)",
    "      COMMON /C/ CALLS",
    "      CALLS = CALLS + 1",
    "      NF = K",
    "      END",
    "      SUBROUTINE TYPED(K)",
    "      IMPLICIT NONE",
    "      INTEGER K",
    "      REAL Z",
    "      Z = 1.0",
    "      IF (K .LT. 0) THEN",
    "        Z = Q / 2",
    "      END IF",
    "      END", ""])


#: (benchmark, configuration) -> (distinct region nodes, region
#: executions) of the recorded profile: equal subtrees are one node
NODE_COUNTS = {("SPEC77", "none"): (7, 1_611),
               ("DYFESM", "annotation"): (16, 732)}


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        FAILURES.append(message)


def main(argv=None) -> int:
    name = (argv or sys.argv[1:] or ["TRFD"])[0]

    from repro.annotations import AnnotationInliner, AnnotationRegistry
    from repro.perfect import get_benchmark
    from repro.polaris import Polaris
    from repro.runtime.backend import make_interpreter
    from repro.runtime.compiler import (clear_compile_cache,
                                        compile_cache_info)
    from repro.runtime.difftest import backend_equivalence

    bench = get_benchmark(name)
    print(f"benchmark: {bench.name}")

    # 1. serial, both backends, exact comparison
    results = {}
    for backend in ("tree", "compiled"):
        interp = make_interpreter(bench.program(), backend,
                                  inputs=list(bench.inputs))
        results[backend] = interp.run()
    tree, comp = results["tree"], results["compiled"]
    check(tree.output == comp.output,
          f"serial output identical ({len(tree.output)} lines)")
    check(tree.cost == comp.cost,
          f"serial cost identical ({tree.cost})")
    check(tree.stop_message == comp.stop_message,
          f"serial stop message identical ({tree.stop_message!r})")
    check(set(tree.commons) == set(comp.commons),
          f"same COMMON blocks ({sorted(tree.commons)})")
    for cname in sorted(tree.commons):
        a, b = tree.commons[cname], comp.commons[cname]
        check(a.shape == b.shape and a.tobytes() == b.tobytes(),
              f"COMMON /{cname}/ bit-identical")

    # 2. parallelized program, all three execution modes
    program = bench.program()
    registry = (AnnotationRegistry.from_text(bench.annotations)
                if bench.annotations.strip() else AnnotationRegistry())
    AnnotationInliner(registry).run(program)
    Polaris().run(program)
    divergence = backend_equivalence(program, bench.inputs)
    check(divergence is None,
          "backend_equivalence over serial/parallel/permuted"
          + (f" — {divergence}" if divergence else ""))

    # 3. template cache serves repeat constructions
    clear_compile_cache()
    make_interpreter(bench.program(), "compiled").run()
    first = compile_cache_info()
    make_interpreter(bench.program(), "compiled").run()
    second = compile_cache_info()
    check(first["misses"] >= 1, f"cold run compiles ({first['misses']} "
                                f"template misses)")
    check(second["hits"] > first["hits"]
          and second["misses"] == first["misses"],
          f"warm run reuses every template ({second['hits']} hits)")

    # 4. honoured directives on the vector kernel
    from repro.program import Program
    program = Program.from_sources({"smoke.f": DIRECTIVE_KERNELS}, "smoke")
    divergence = backend_equivalence(program)
    check(divergence is None,
          "directive-kernel program: backend_equivalence"
          + (f" — {divergence}" if divergence else ""))
    for order, expected in KERNEL_STEPS.items():
        interp = make_interpreter(program, "compiled",
                                  iteration_order=order)
        interp.run()
        check(interp.kernel_steps == expected,
              f"{order} order: kernels commit {interp.kernel_steps} of "
              f"{interp.steps} steps (expected {expected})")

    # 5. operands admitted by invariance (BDNA's PCINIT, inlined) and
    # whole nests on one launch: a row reduction (SPEC77's SYNTH) and a
    # varying INTEGER division beside a two-axis store (DYFESM)
    from repro.experiments.pipeline import Config, run_config
    programs = {}
    for bname, config, expected in KERNEL_COUNTS:
        other = get_benchmark(bname)
        program = programs[bname, config] = run_config(
            other, Config(config)).program
        divergence = backend_equivalence(program, other.inputs)
        check(divergence is None,
              f"{bname} {config}: backend_equivalence"
              + (f" — {divergence}" if divergence else ""))
        interp = make_interpreter(program, "compiled",
                                  inputs=list(other.inputs))
        interp.run()
        seen = (interp.kernel_steps, interp.steps, interp.kernel_launches,
                interp.kernel_bails)
        check(seen == expected,
              "{} {}: kernels commit {} of {} steps in {} launches, {} "
              "refused".format(bname, config, *seen)
              + " (expected {} of {}, {}, {})".format(*expected))

    # 6. the CLI prices the recorded tree
    import contextlib
    import io
    import tempfile
    from repro.cli import main as cli
    from repro.runtime.machine import INTEL_MAC, price
    program = Program.from_sources({"smoke.f": DIRECTIVE_KERNELS}, "smoke")
    expected = price(make_interpreter(program).run().regions, INTEL_MAC)[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "smoke.f")
        with open(path, "w") as fh:
            fh.write(DIRECTIVE_KERNELS)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            cli(["run", path, "--machine", "intel-mac"])
    line = f"[simulated cost: {expected:.0f} work units on intel-mac]"
    check(line in err.getvalue(), f"repro run --machine prints {line}")

    # 7. equal region subtrees are one node, and pricing the DAG decides
    # what pricing the tree does
    from repro.experiments.tuning import decide, record_profile
    from repro.runtime.machine import (AMD_OPTERON, RegionNode,
                                       RegionProfile)

    def rebuilt(node):
        return RegionNode(node.site, node.costs, tuple(
            (pos, rebuilt(kid)) for pos, kid in node.children))

    for (bname, config), expected in NODE_COUNTS.items():
        other = get_benchmark(bname)
        program = programs[bname, config]
        profile = record_profile(program, other.inputs)
        executions, distinct, stack = 0, set(), list(profile.roots)
        while stack:
            node = stack.pop()
            executions += 1
            distinct.add(id(node))
            stack.extend(kid for _pos, kid in node.children)
        seen = (len(distinct), executions)
        check(seen == expected,
              "{} {}: {} distinct region nodes for {} executions".format(
                  bname, config, *seen)
              + " (expected {} for {})".format(*expected))
        tree = RegionProfile(profile.work,
                             tuple(rebuilt(node) for node in profile.roots))
        for machine in (INTEL_MAC, AMD_OPTERON):
            shared = decide(program, machine, other.inputs, profile=profile)
            whole = decide(program, machine, other.inputs, profile=tree)
            check(shared == whole,
                  f"{bname} {config} on {machine.name}: decide over the "
                  f"shared profile equals decide over the rebuilt tree "
                  f"({len(shared[1])} disabled)")

    # 8. DATA and SAVE locals outlive their activation
    program = Program.from_sources({"kept.f": SAVED_LOCALS}, "kept")
    divergence = backend_equivalence(program)
    check(divergence is None,
          "DATA/SAVE program: backend_equivalence"
          + (f" — {divergence}" if divergence else ""))
    for backend in ("tree", "compiled"):
        output = make_interpreter(program, backend).run().output
        check([float(x) for x in output] == [1.0, 2.0, 1.0, 2.0],
              f"{backend}: DATA and SAVE locals print {' '.join(output)} "
              f"(expected 1 2 1 2)")

    # 9. Figure 20's per-iteration shapes, each one launch
    for label, (text, expected) in SHAPES.items():
        program = Program.from_sources({"shape.f": text}, "shape")
        divergence = backend_equivalence(program)
        check(divergence is None, f"{label}: backend_equivalence"
              + (f" — {divergence}" if divergence else ""))
        interp = make_interpreter(program, "compiled")
        interp.run()
        seen = (interp.kernel_launches, interp.kernel_bails)
        check(seen == expected, "{}: {} launches, {} refused".format(
            label, *seen) + " (expected {}, {})".format(*expected))

    # 10. the statements and expressions the closures leave cold
    program = Program.from_sources({"walked.f": WALKED}, "walked")
    divergence = backend_equivalence(program, [2.5, 3.0])
    check(divergence is None, "walked statements and expressions: "
          "backend_equivalence" + (f" — {divergence}" if divergence else ""))
    for backend in ("tree", "compiled"):
        result = make_interpreter(program, backend, inputs=[2.5, 3.0]).run()
        check(result.stop_message == "WALKED" and len(result.output) == 1,
              f"{backend}: stops with 'WALKED' after printing "
              f"{result.output}")

    if FAILURES:
        print(f"\nruntime smoke FAILED ({len(FAILURES)} checks):")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("\nruntime smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
