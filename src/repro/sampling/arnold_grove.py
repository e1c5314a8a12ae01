"""Arnold-Grove sampling, regular and simplified (paper section 4.4).

Timer-based sampling takes one sample per timer tick, at whichever
yieldpoint happens to run first after the tick — too few samples, and
biased toward yieldpoints that align with the timer.  Arnold and Grove fix
both problems: on each tick they take SAMPLES samples at successive
yieldpoints (by leaving the flag set) and *stride*, skipping a rotating
number of yieldpoints, to break the alignment.

The paper's *simplified* variant strides only once per tick — before the
first sample — because in Jikes RVM skipping a sample costs almost as much
as taking one, so striding between every sample is a poor
overhead/accuracy trade-off.

``PEP(SAMPLES, STRIDE)`` from the paper maps to
``SamplingConfig(samples=SAMPLES, stride=STRIDE)``: e.g. PEP(1,1) is
timer-based sampling, PEP(64,17) skips 0-16 yieldpoints after a tick and
then samples 64 consecutive yieldpoints.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.errors import PathReconstructionError, ReproError
from repro.profiling.edges import numpy_available
from repro.vm.interpreter import CompiledMethod
from repro.vm.runtime import VirtualMachine

_IDLE = 0
_STRIDING = 1
_SAMPLING = 2

#: Buffered samples are drained at tick boundaries, burst ends, and run
#: end; the cap only bounds memory if a single burst is pathologically
#: long (SAMPLES far above any tick's yieldpoint count).
_RING_CAP = 8192


class SamplingConfig:
    """A PEP(SAMPLES, STRIDE) sampling configuration."""

    __slots__ = ("samples", "stride", "simplified")

    def __init__(self, samples: int, stride: int, simplified: bool = True) -> None:
        if samples < 1:
            raise ReproError(f"SAMPLES must be >= 1, got {samples}")
        if stride < 1:
            raise ReproError(f"STRIDE must be >= 1, got {stride}")
        self.samples = samples
        self.stride = stride
        self.simplified = simplified

    @property
    def name(self) -> str:
        suffix = "" if self.simplified else ",AG"
        return f"PEP({self.samples},{self.stride}{suffix})"

    def __repr__(self) -> str:
        return f"<SamplingConfig {self.name}>"


class TimerMethodSampler:
    """Raise the flag each tick; take no path samples.

    Used by adaptive runs without PEP: the per-tick method sample (handled
    by the VM's dispatch) still occurs, which is all the adaptive
    controller needs.
    """

    def on_tick(self, vm: VirtualMachine) -> None:
        vm.flag = True

    def on_yieldpoint(
        self,
        vm: VirtualMachine,
        cm: CompiledMethod,
        path_reg: int,
        is_sample_point: bool,
    ) -> float:
        vm.flag = False
        return 0.0


class ArnoldGroveSampler:
    """The PEP yieldpoint handler: stride, sample, record, derive edges.

    Path samples are recorded only at *sample points* (header and exit
    yieldpoints — the locations where full Ball-Larus would run
    count[r]++); other yieldpoints still consume a sampling opportunity,
    as in Arnold-Grove's "successive yieldpoints".  Each recorded path is
    expanded to its branch events to update the edge profile, with the
    expansion memoised so only a path's first sample pays for it
    (section 4.3).
    """

    __slots__ = (
        "config",
        "record_paths",
        "_state",
        "_skip_left",
        "_samples_left",
        "_rotation",
        "_np_drain",
        "_between",
        "_buf_cm",
        "_buf_path",
        "_buf_n",
        "_buf_last_cm",
        "_buf_last_path",
        "_rc_vm",
        "_rc_cm",
        "_rc_ok",
        "_rc_np",
        "_rc_pk",
        "_rc_res",
        "_c_sample",
        "_c_stride",
        "_c_expand",
    )

    def __init__(self, config: SamplingConfig, record_paths: bool = True) -> None:
        self.config = config
        self.record_paths = record_paths
        self._state = _IDLE
        self._skip_left = 0
        self._samples_left = 0
        self._rotation = 0
        # Batch the drain's edge-slot updates through NumPy when it is
        # importable; without NumPy the pure-Python loop runs.
        # Bit-identical either way: counts are integer-valued floats, so
        # add order cannot matter.
        self._np_drain = numpy_available()
        self._between = not config.simplified and config.stride > 1
        # Run-length-encoded sample buffer (DESIGN.md §10): parallel
        # lists of (method, path, repeat count), drained in batches.
        # Hot loops sample the same path many times in a row, so most
        # samples are a single list-item increment.
        self._buf_cm: List[CompiledMethod] = []
        self._buf_path: List[int] = []
        self._buf_n: List[int] = []
        self._buf_last_cm: Optional[CompiledMethod] = None
        self._buf_last_path = -1
        # Record-path probe cache, keyed by (vm, cm) identity: resolver
        # presence, the fault plan, and the DAG's path-number range are
        # fixed per (vm, cm), so the per-sample record decision reduces
        # to two identity checks and a range compare.  Only a failed
        # reconstruction changes the K-strikes state the probe read;
        # it re-arms the probe (see _record).
        self._rc_vm: Optional[VirtualMachine] = None
        self._rc_cm: Optional[CompiledMethod] = None
        self._rc_ok = False
        self._rc_np = 0
        self._rc_pk = ""
        self._rc_res = None
        # Dilated handler costs, refreshed from the VM's cost model at
        # every tick (the divisions _record makes per sample, so
        # identical floats).
        self._c_sample = 0.0
        self._c_stride = 0.0
        self._c_expand = 0.0

    def reset(self) -> None:
        """Restart the burst state machine (rotation included).

        Buffered samples are *not* discarded: they were legitimately
        taken before the reset, exactly like the ones :meth:`_record`
        applied on the spot; the next drain (tick, burst end, or
        :meth:`flush`) applies them.
        """
        self._state = _IDLE
        self._skip_left = 0
        self._samples_left = 0
        self._rotation = 0

    # -- SamplerLike ---------------------------------------------------------

    def on_tick(self, vm: VirtualMachine) -> None:
        vm.flag = True
        if self._buf_cm:
            self._drain(vm)
        costs = vm.costs
        self._c_sample = costs.scaled_handler(costs.handler_sample)
        self._c_stride = costs.scaled_handler(costs.handler_stride)
        self._c_expand = costs.scaled_handler(costs.handler_expand_first)
        if self._state != _IDLE:
            # The previous burst is still draining (very long bursts or
            # very short tick intervals); let it finish.
            return
        skip = self._rotation % self.config.stride
        self._rotation += 1
        self._samples_left = self.config.samples
        if skip > 0:
            self._state = _STRIDING
            self._skip_left = skip
        else:
            self._state = _SAMPLING

    def on_yieldpoint(
        self,
        vm: VirtualMachine,
        cm: CompiledMethod,
        path_reg: int,
        is_sample_point: bool,
    ) -> float:
        state = self._state
        if state == _SAMPLING:
            cost = self._c_sample
            vm.samples_taken += 1
            if is_sample_point and self.record_paths:
                if (
                    cm is self._buf_last_cm
                    and path_reg == self._buf_last_path
                ):
                    # Same (method, path) as the still-buffered previous
                    # sample: that sample already passed the probe and
                    # marked the expansion, so this one is a single
                    # run-length bump.
                    self._buf_n[-1] += 1
                else:
                    if cm is not self._rc_cm or vm is not self._rc_vm:
                        self._rearm_record_cache(vm, cm)
                    if self._rc_ok and 0 <= path_reg < self._rc_np:
                        # Buffered record (see _drain for the apply).
                        res = self._rc_res
                        if res is not None:
                            # First buffered sample since the probe
                            # re-armed on a resilient run: a success,
                            # as in _record (see _rearm_record_cache).
                            self._rc_res = None
                            res.note_reconstruction_success(cm.source_name)
                        self._buf_cm.append(cm)
                        self._buf_path.append(path_reg)
                        self._buf_n.append(1)
                        self._buf_last_cm = cm
                        self._buf_last_path = path_reg
                        if len(self._buf_cm) >= _RING_CAP:
                            self._drain(vm)
                        # First-expansion accounting is per-VM, exactly
                        # as in _record: the cost lands on the sample
                        # that triggers the expansion, even though the
                        # (memoised) expansion itself now happens at the
                        # drain.  In-range paths of a numbered DAG
                        # always reconstruct, so marking eagerly matches
                        # _record's success-only marking.
                        pkey = (self._rc_pk, path_reg)
                        expanded = vm.expanded_paths
                        if pkey not in expanded:
                            expanded.add(pkey)
                            cost += self._c_expand
                    else:
                        # Resolver-less method, a plan with sampler
                        # fault sites, a method whose path profiling
                        # K-strikes disabled, or a path number that
                        # cannot reconstruct: the per-sample _record
                        # handles every such case (including raising).
                        cost += self._record(vm, cm, path_reg)
            left = self._samples_left - 1
            self._samples_left = left
            if left == 0:
                self._state = _IDLE
                vm.flag = False
                if self._buf_cm:
                    self._drain(vm)
            elif self._between:
                # Regular Arnold-Grove: stride between every pair of samples.
                self._state = _STRIDING
                self._skip_left = self.config.stride - 1
            return cost
        if state == _STRIDING:
            self._skip_left -= 1
            vm.strides_skipped += 1
            if self._skip_left == 0:
                self._state = _SAMPLING
            return self._c_stride
        # Flag raised by someone else (e.g. a method-only tick burst
        # already drained); nothing for us to do.
        vm.flag = False
        return 0.0

    def flush(self, vm: VirtualMachine) -> None:
        """Drain buffered samples into the VM's profiles (run end).

        :meth:`VirtualMachine.run` calls this after the engine returns
        (and on engine errors), so profiles observed after a run are
        complete.  Code that drives a sampler against several VMs by
        hand must flush before switching VMs.
        """
        if self._buf_cm:
            self._drain(vm)

    # -- internals ---------------------------------------------------------

    def _record(
        self, vm: VirtualMachine, cm: CompiledMethod, path_reg: int
    ) -> float:
        resolver = cm.resolver
        if resolver is None:
            # Method compiled without PEP (e.g. baseline tier): the
            # yieldpoint cannot deliver a path.
            return 0.0
        resilience = vm.resilience
        injector = resilience.injector if resilience is not None else None
        source = cm.source_name
        if resilience is not None and not resilience.path_profiling_enabled(
            source
        ):
            # Degraded: the K-strikes policy turned PEP path profiling off
            # for this method; the sample is simply not recorded.
            return 0.0
        if injector is not None and injector.should_fire(
            "sample", cm.profile_key
        ):
            # A corrupt sample is dropped at the handler boundary — the
            # profile sees nothing, the program never notices.
            resilience.drop_sample()
            return 0.0
        cost = 0.0
        # First-expansion accounting is per-VM (not per-memo): the shared
        # resolver memo may already be warm from another run or compiled
        # version, but *this* run still pays the one-time expansion cost —
        # and still exercises the reconstruction fault site — exactly
        # once per (method version, path).  Failed expansions are not
        # marked, so a retried sample pays (and may fault) again, as
        # before.
        pkey = (cm.profile_key, path_reg)
        first_time = pkey not in vm.expanded_paths
        if first_time:
            cost += vm.costs.scaled_handler(vm.costs.handler_expand_first)
        try:
            events = resolver.branch_events(
                path_reg, injector=injector if first_time else None
            )
        except PathReconstructionError as exc:
            if resilience is None:
                raise
            # Drop the sample; K consecutive failures on one method
            # disable its path profiling (edge-only fallback).
            resilience.note_reconstruction_failure(source, exc)
            # The failure moved K-strikes state that the buffered
            # datapath's probe cache and RLE run stand for: re-arm the
            # probe and break the run, so the method's next buffered
            # sample re-reads the disable flag and resets the streak.
            self._rc_cm = None
            self._buf_last_cm = None
            return cost
        vm.expanded_paths.add(pkey)
        if resilience is not None:
            resilience.note_reconstruction_success(source)
        if injector is not None and injector.should_fire(
            "path-table", cm.profile_key
        ):
            # The path-table update faulted; the edge derivation below
            # still proceeds, so the edge profile keeps flowing.
            resilience.drop_sample()
        else:
            vm.path_profile.record(cm.profile_key, path_reg)
        edge_profile = vm.edge_profile
        for branch, taken in events:
            edge_profile.record(branch, taken)
        return cost

    def _rearm_record_cache(
        self, vm: VirtualMachine, cm: CompiledMethod
    ) -> None:
        """Refresh the per-(vm, cm) record-path probe (see __init__).

        ``_rc_ok`` means the buffered datapath may record for this
        (vm, cm): the method has a resolver (it was compiled with PEP),
        the fault plan (if any) configures no sampler site, and
        K-strikes has not disabled the method's path profiling.
        Sampler sites draw per sample, so buffering would reorder their
        streams; those plans keep the sample-at-a-time ``_record``.
        With none configured, ``_record``'s checks of those sites
        return before drawing, and an in-range path always
        reconstructs, so a buffered sample does exactly what a
        successful ``_record`` would — including resetting the
        method's K-strikes streak.  Streaks only grow in ``_record``,
        which re-arms this probe when one does, so ``_rc_res`` makes
        the first buffered sample after each re-arm do that reset.
        """
        self._rc_vm = vm
        self._rc_cm = cm
        resolver = cm.resolver
        resilience = vm.resilience
        if resolver is None or (
            resilience is not None
            and (
                resilience.sampler_faults
                or not resilience.path_profiling_enabled(cm.source_name)
            )
        ):
            self._rc_ok = False
            return
        self._rc_ok = True
        self._rc_np = resolver.dag.num_paths
        self._rc_pk = cm.profile_key
        self._rc_res = resilience

    def _drain(self, vm: VirtualMachine) -> None:
        """Apply buffered samples: aggregate, then batch-update tables.

        Sample order is preserved in aggregate: counters are integers,
        so ``+k`` equals k successive ``+1``s exactly, and first-
        occurrence iteration order reproduces the table insertion order
        that recording one sample at a time would produce.
        """
        buf_cm = self._buf_cm
        buf_path = self._buf_path
        buf_n = self._buf_n
        agg: dict = {}
        agg_get = agg.get
        for i in range(len(buf_cm)):
            key = (buf_cm[i], buf_path[i])
            agg[key] = agg_get(key, 0) + buf_n[i]
        del buf_cm[:]
        del buf_path[:]
        del buf_n[:]
        self._buf_last_cm = None
        self._buf_last_path = -1
        path_profile = vm.path_profile
        edge_profile = vm.edge_profile
        slot_cache = vm.edge_slot_cache
        slot_cache_get = slot_cache.get
        record_slots = edge_profile.record_slots
        # Resolution (slot allocation + path recording) stays sequential
        # in entry order — it is what assigns slot indices, and the path
        # profile is a dict/dense-array hybrid with its own ordering.
        # Only the edge-slot accumulation batches: either the reference
        # loop per entry, or one NumPy scatter-add over all entries
        # (taken after resolution, since slot_for may grow the array).
        np_drain = self._np_drain
        pending: List = []
        for (cm, path_reg), k in agg.items():
            profile_key = cm.profile_key
            count = float(k)
            ckey = (profile_key, path_reg)
            slots = slot_cache_get(ckey)
            if slots is None:
                events = cm.resolver.branch_events(path_reg)
                slot_for = edge_profile.slot_for
                slots = array(
                    "q", [slot_for(branch, taken) for branch, taken in events]
                )
                slot_cache[ckey] = slots
            path_profile.record(profile_key, path_reg, count)
            if np_drain:
                pending.append((slots, count))
            else:
                record_slots(slots, count)
        if pending:
            edge_profile.record_slot_batches(pending)


def make_sampler(
    samples: int,
    stride: int,
    simplified: bool = True,
    record_paths: bool = True,
) -> ArnoldGroveSampler:
    """Convenience constructor mirroring the paper's PEP(S,K) notation."""
    return ArnoldGroveSampler(
        SamplingConfig(samples, stride, simplified=simplified),
        record_paths=record_paths,
    )


def sampler_for(config: Optional[SamplingConfig]):
    """Build a sampler from an optional config (None = no sampling)."""
    if config is None:
        return None
    return ArnoldGroveSampler(config)
