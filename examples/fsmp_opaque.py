"""Figures 6-9 and 13: summarizing the opaque compositional subroutine
FSMP so the element loop parallelizes.

Runs the DYFESM benchmark's FSMP scenario through all three
configurations and prints who can parallelize the Figure-7 K loop.

Run:  python examples/fsmp_opaque.py
"""

from repro.experiments import run_all_configs
from repro.perfect import get_benchmark
from repro.runtime import diff_test


def main() -> None:
    bench = get_benchmark("dyfesm")
    results = run_all_configs(bench)

    print("The Figure-7 element loop (DO K ... CALL FSMP(ID, IDE)):")
    print("-" * 64)
    for config, result in results.items():
        verdicts = [v for v in result.report.verdicts
                    if v.unit == "DYFESM" and v.var == "K"]
        for v in verdicts[:1]:
            state = "PARALLEL" if v.parallelized else \
                f"serial ({v.reason}: {v.detail})"
            print(f"  {config:14s} -> {state}")

    conv = results["conventional"].conventional_result
    fsmp = [s for s in conv.sites if s.callee == "FSMP"][0]
    print()
    print(f"Why conventional inlining skipped FSMP: {fsmp.reason!r} "
          f"(the paper's Section II-B1 exclusion)")

    print()
    print("Annotation configuration, verified end to end:")
    check = diff_test(results["annotation"].program)
    print("  differential test:", check.explain())
    omp = results["annotation"]
    k = [v for v in omp.report.verdicts
         if v.unit == "DYFESM" and v.var == "K" and v.parallelized][0]
    print(f"  privatized temporaries: {', '.join(k.private)}")
    print("  (XY/WTDET/P are the paper's Figure 8-9 global temporary "
          "arrays,")
    print("   summarized as atomic values by the Figure-13 annotation)")


if __name__ == "__main__":
    main()
