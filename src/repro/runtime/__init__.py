"""Execution substrate: a Fortran 77 interpreter with by-reference
argument passing, COMMON-block sequence association, and a simulated
OpenMP execution model used to produce Figure 20's speedups and to
runtime-verify parallelized programs (the paper's "runtime testers").
"""
