"""Experiment harness: the primitives the benches assemble figures from.

* :mod:`repro.harness.experiment` — per-workload preparation (advice
  recording, Base measurement, tick-interval calibration) and the
  configuration space (Base, instrumentation-only, PEP(S,K), perfect
  profiling, ablations);
* :mod:`repro.harness.accuracy` — perfect/estimated profile collection
  and the paper's accuracy computations;
* :mod:`repro.harness.report` — figure-shaped text rendering.
"""

from repro.harness.experiment import (
    ExperimentContext,
    RunConfig,
    pep_config,
    prepare,
    run_config,
)
from repro.harness.accuracy import (
    collect_pep_profiles,
    collect_perfect_profiles,
    derive_edge_profile,
    edge_accuracy,
    path_accuracy,
)
from repro.harness.report import render_accuracy_figure, render_overhead_figure

__all__ = [
    "ExperimentContext",
    "RunConfig",
    "pep_config",
    "prepare",
    "run_config",
    "collect_pep_profiles",
    "collect_perfect_profiles",
    "derive_edge_profile",
    "edge_accuracy",
    "path_accuracy",
    "render_accuracy_figure",
    "render_overhead_figure",
]
