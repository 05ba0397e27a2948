"""The four workloads of the benchmark, by name.

Importing a workload module imports the program under test, so the
runner asks for one workload at a time.
"""

import importlib

#: workload name -> (module, class)
WORKLOADS = {
    "table2": ("table2", "Table2"),
    "parallelize": ("parallelize", "Parallelize"),
    "figure20": ("figure20", "Figure20"),
    "service": ("service", "Service"),
}


def workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), cls)
