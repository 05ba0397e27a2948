"""Run the full evaluation on one PERFECT substitute (or all of them).

Reproduces that benchmark's Table II row and Figure 20 bars, with the
runtime verification the paper performed by hand.

Run:  python examples/perfect_suite.py [BENCHMARK ...]
      python examples/perfect_suite.py DYFESM ARC2D
      python examples/perfect_suite.py --all
"""

import sys

from repro.experiments.figure20 import figure20_cells, render_figure20
from repro.experiments.table2 import render_table2, table2_row
from repro.perfect import benchmark_names, get_benchmark
from repro.runtime.difftest import diff_test
from repro.experiments.pipeline import run_all_configs


def run_one(name: str) -> None:
    bench = get_benchmark(name)
    print("#" * 70)
    print(f"# {bench.name}: {bench.description}")
    print("#" * 70)
    row = table2_row(bench)
    print(render_table2([row]))
    print()

    # runtime verification of the annotation configuration
    results = run_all_configs(bench)
    check = diff_test(results["annotation"].program,
                      inputs=list(bench.inputs))
    print(f"runtime verification : {check.explain()}")
    print()
    print(render_figure20(figure20_cells(bench)))
    print()


def main() -> None:
    args = sys.argv[1:]
    if "--all" in args:
        names = benchmark_names()
    elif args:
        names = [a.upper() for a in args]
    else:
        names = ["DYFESM"]
    for name in names:
        run_one(name)


if __name__ == "__main__":
    main()
