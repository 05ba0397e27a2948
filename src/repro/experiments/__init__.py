"""Evaluation harness: the three-configuration pipeline, Table I/II and
Figure 20 generators, and the empirical tuning pass.

The package re-exports nothing: import the submodule you need
(``repro.experiments.pipeline`` for ``run_all_configs``)."""
