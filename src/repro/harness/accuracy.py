"""Profile collection and accuracy evaluation for one workload.

Implements the paper's comparison protocol:

* the *perfect* path profile comes from instrumentation-based path
  profiling (section 5.1); the *perfect* edge profile is derived from it
  by expanding every recorded path (avoiding the uninterruptible-header
  asymmetry, section 6.4); direct per-branch edge instrumentation, which
  only the section 6.4 footnote compares against, is replayed on demand;
* PEP's estimated profiles come from a sampled run with the same advice
  and therefore identical path numbering;
* path accuracy is Wall weight-matching over branch-flow (section 6.3);
  edge accuracy is relative or absolute overlap (section 6.4).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.adaptive import replay
from repro.metrics.overlap import absolute_overlap, relative_overlap
from repro.metrics.wall import path_profile_accuracy
from repro.profiling.edges import EdgeProfile
from repro.profiling.paths import PathProfile
from repro.profiling.regenerate import PathResolver, derive_edge_profile
from repro.sampling.arnold_grove import SamplingConfig
from repro.harness.experiment import ExperimentContext, run_config, RunConfig


class PerfectProfiles:
    """Ground truth for one workload: paths, derived edges, resolvers.

    ``direct_edges``, the direct per-branch instrumentation profile for
    the section 6.4 footnote, is replayed on first read and memoised.
    That replay is untimed, has no sampler and compiles its image from
    the same context, so its result does not depend on when it runs.
    An error in it surfaces on that first read, not inside
    :func:`collect_perfect_profiles`.
    """

    __slots__ = ("paths", "edges", "resolvers", "_ctx", "_direct_edges")

    def __init__(
        self,
        ctx: ExperimentContext,
        paths: PathProfile,
        edges: EdgeProfile,
        resolvers: Dict[str, PathResolver],
    ) -> None:
        self._ctx = ctx
        self.paths = paths
        self.edges = edges
        self.resolvers = resolvers
        self._direct_edges: Optional[EdgeProfile] = None

    @property
    def direct_edges(self) -> EdgeProfile:
        if self._direct_edges is None:
            vm, _ = replay.run_iteration_with_vm(self._ctx.image("edges"))
            self._direct_edges = vm.edge_profile.copy()
        return self._direct_edges


def collect_perfect_profiles(ctx: ExperimentContext) -> PerfectProfiles:
    """Run the full-path instrumentation replay to get ground truth."""
    image = ctx.image("full-path")
    vm, _ = replay.run_iteration_with_vm(image)
    resolvers = image.resolvers()
    paths = vm.path_profile.copy()
    edges = derive_edge_profile(paths, resolvers)
    return PerfectProfiles(ctx, paths, edges, resolvers)


def collect_pep_profiles(
    ctx: ExperimentContext,
    sampling: SamplingConfig,
) -> Tuple[PathProfile, EdgeProfile]:
    """Run PEP under a sampling configuration; returns (paths, edges)."""
    config = RunConfig(sampling.name, "pep", sampling)
    vm, _ = run_config(ctx, config)
    return vm.path_profile.copy(), vm.edge_profile.copy()


def path_accuracy(
    ctx: ExperimentContext,
    sampling: SamplingConfig,
    perfect: Optional[PerfectProfiles] = None,
) -> float:
    """Wall weight-matching accuracy of PEP(S,K) on this workload."""
    if perfect is None:
        perfect = collect_perfect_profiles(ctx)
    estimated_paths, _ = collect_pep_profiles(ctx, sampling)
    return path_profile_accuracy(
        perfect.paths, estimated_paths, perfect.resolvers
    )


def edge_accuracy(
    ctx: ExperimentContext,
    sampling: SamplingConfig,
    perfect: Optional[PerfectProfiles] = None,
    absolute: bool = False,
    against_direct: bool = False,
) -> float:
    """Edge-profile accuracy of PEP(S,K): relative or absolute overlap.

    ``against_direct`` compares to instrumentation-based *edge* profiling
    instead of path-derived edges — the comparison that loses ~2% in the
    paper because uninterruptible headers drop a few paths.
    """
    if perfect is None:
        perfect = collect_perfect_profiles(ctx)
    _, estimated_edges = collect_pep_profiles(ctx, sampling)
    actual = perfect.direct_edges if against_direct else perfect.edges
    if absolute:
        return absolute_overlap(actual, estimated_edges)
    return relative_overlap(actual, estimated_edges)
