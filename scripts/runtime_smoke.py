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
   kernel loop nested in a region whose private row buffer keeps it on
   the per-iteration path) agrees in all three modes, region trees
   included, with the honoured directive loops committed by the vector
   kernel in program order and by no kernel under the permuted schedule;
5. BDNA under ``conventional`` — the ``TSTEP**2`` operand and the
   ``T(IX(7)+...)`` subscript, both admitted to the kernel by invariance,
   in one program —, SPEC77 under ``none`` — ``SYNTH``'s row reduction,
   64 inner loops on one launch — and DYFESM under ``annotation`` — a
   varying INTEGER division beside an inner loop whose stores move on
   both axes — agree in all three modes, their kernels committing the
   steps, in the launches and with the refusals of ``KERNEL_COUNTS``.

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
#: statement steps per mode: loop 10 and loop 20 run 2 x 8 six times,
#: loop 40 runs 3 x 48; permuted runs keep only directive-free loop 20
KERNEL_STEPS = {"sequential": 6 * 32 + 144, "permuted": 6 * 16}


#: (benchmark, configuration, (kernel steps, steps, launches, refusals))
#: with directives honoured; DYFESM's refusal is the interval check's
#: false positive on the interleaved XYG(1,ID) / XYG(2,ID) stores
KERNEL_COUNTS = [("BDNA", "conventional", (36_800, 38_851, 10, 0)),
                 ("SPEC77", "none", (258_304, 262_272, 27, 0)),
                 ("DYFESM", "annotation", (58_964, 67_158, 127, 1))]


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
    from repro.runtime.machine import INTEL_MAC

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
    divergence = backend_equivalence(program, INTEL_MAC, bench.inputs)
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
    divergence = backend_equivalence(program, INTEL_MAC)
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
    for bname, config, expected in KERNEL_COUNTS:
        other = get_benchmark(bname)
        program = run_config(other, Config(config)).program
        divergence = backend_equivalence(program, INTEL_MAC, other.inputs)
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

    if FAILURES:
        print(f"\nruntime smoke FAILED ({len(FAILURES)} checks):")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("\nruntime smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
