"""The virtual-cycle cost model.

Every guest instruction charges a fixed number of virtual cycles; the
instrumentation instructions charge costs reflecting the paper's central
cost asymmetry (section 3.2):

    path-register add  <<  per-branch counter update  <<  hashed
    count[r]++ / sample handler invocation

The absolute values below are calibrated so that, on the synthetic
workload suite, the *relationships* the paper reports emerge: full
hash-based path instrumentation costs tens of percent (92% average in the
paper), per-branch edge instrumentation costs around ten percent, and
PEP's register adds cost around one percent.

Fixed-point cost grid
---------------------
Every charge the model can produce lies on the dyadic grid of multiples
of ``2**-FOLD_SHIFT`` (the base costs are halves, the tier multipliers
are calibrated as exact multiples of 2^-12, and ``sampling_dilation``
defaults to a power of two).  On that grid IEEE-754 double addition is
*exact* for any realistic accumulation (sums stay far below
``2**(53 - FOLD_SHIFT)`` virtual cycles), which means re-associating a
straight-line cost chain — folding it into one constant at codegen time
— is bit-identical to charging each op sequentially.  DESIGN.md §15
develops this; :func:`fold_clean` is the certification predicate.

Sampling-time dilation
----------------------
Our benchmark runs are ~10^4x shorter than the paper's (hundreds of
thousands of virtual cycles instead of ~10^10 real cycles), but they
receive the *same number of timer ticks* (a few hundred) so that profile
accuracy is comparable.  Per-tick handler work therefore occupies a far
larger *fraction* of a scaled-down run than of a real run.  To keep the
sampling-overhead ratio meaningful, handler costs are divided by
``sampling_dilation``: the factor by which our inter-tick gap is shorter
than the paper's (20 ms on a 3.2 GHz P4 = 64M cycles between ticks; ours
default to a few thousand).  Instrumentation costs are NOT dilated — they
scale with executed work, which is preserved.  DESIGN.md discusses this
substitution.
"""

from __future__ import annotations

#: Fixed-point accounting grid (DESIGN.md §15): a charge is
#: fixed-representable when it is an exact multiple of ``2**-FOLD_SHIFT``
#: and bounded by ``FOLD_BOUND``.  Q20 leaves 33 integer bits of exact
#: headroom (sums below ~8.6e9 virtual cycles — far beyond any
#: fuel-bounded run), so float addition of grid values never rounds and
#: the single ``int -> float`` boundary division at a flush is exact.
FOLD_SHIFT = 20
FOLD_SCALE = float(1 << FOLD_SHIFT)
FOLD_BOUND = 2.0 ** 24

def fold_clean(value: float) -> bool:
    """True when ``value`` lies on the fixed-point grid.

    Grid membership is what makes folding sound: products of clean
    values' sums with exact boundary conversion reproduce sequential
    float accumulation bit for bit.  NaN/inf and out-of-range magnitudes
    are rejected (``abs(nan) <= bound`` is False, so they fall out of the
    first test).
    """
    return abs(value) <= FOLD_BOUND and (value * FOLD_SCALE).is_integer()


class CostModel:
    """Per-operation virtual-cycle charges.

    Mutable on purpose: ablation benches tweak individual fields (e.g.
    hash vs array path counters) without re-plumbing every constructor.
    """

    __slots__ = (
        "simple_op",
        "mem_op",
        "newarr_op",
        "call_op",
        "ret_op",
        "emit_op",
        "jmp_op",
        "branch_op",
        "branch_mislayout_penalty",
        "yieldpoint_op",
        "pep_init",
        "pep_add",
        "path_count_hash",
        "path_count_array",
        "edge_count",
        "handler_stride",
        "handler_sample",
        "handler_expand_first",
        "handler_method_sample",
        "sampling_dilation",
        "tier_multipliers",
        "compile_cost_per_instr",
        "pep_pass_cost_per_instr",
    )

    def __init__(self) -> None:
        # Ordinary execution.
        self.simple_op = 1.0  # const/move/unary/binop
        self.mem_op = 2.0  # array load/store/len
        self.newarr_op = 6.0  # allocation + zeroing (amortised)
        self.call_op = 6.0  # frame setup, argument copy
        self.ret_op = 2.0
        self.emit_op = 2.0
        self.jmp_op = 1.0
        self.branch_op = 2.0
        # Extra cycles when the taken arm is not the laid-out fall-through:
        # this is the lever profile-guided code layout pulls (section 6.5).
        self.branch_mislayout_penalty = 3.0
        self.yieldpoint_op = 1.0  # flag test; present in Base too

        # Instrumentation (section 3.2's cheap/expensive split).
        self.pep_init = 0.5  # r = 0: one register write, dual-issues
        self.pep_add = 0.5  # r += const: one register add, dual-issues
        self.path_count_hash = 60.0  # Jikes-style hash-table update
        self.path_count_array = 20.0  # classic BL array increment
        self.edge_count = 2.0  # load-increment-store on a counter pair

        # Yieldpoint-handler work, charged only when the flag is set.
        # "Taking a sample is almost as expensive as striding over a
        # sample" (section 4.4) — hence stride ~= sample.
        self.handler_stride = 60.0
        self.handler_sample = 80.0
        self.handler_expand_first = 400.0  # first-time path->edges expansion
        self.handler_method_sample = 40.0  # adaptive-system method sample

        # See module docstring: scales handler costs to compensate for
        # time-dilated runs.
        self.sampling_dilation = 512.0

        # Compiled-code quality: unoptimized baseline code runs ~3x slower.
        # The opt0/opt1 values are calibrated *on the fixed-point grid*
        # (exact multiples of 2^-12, within 0.01% of the nominal 1.15 /
        # 1.05) so every tier's per-op charges are fixed-representable
        # and cost chains fold exactly at codegen time (DESIGN.md §15).
        self.tier_multipliers = {
            "baseline": 3.0,
            "opt0": 4710 / 4096,  # 1.14990234375 ~ nominal 1.15 (-0.0085%)
            "opt1": 4301 / 4096,  # 1.050048828125 ~ nominal 1.05 (+0.0047%)
            "opt2": 1.0,
        }

        # Compile-time cycles per static instruction, per tier.
        self.compile_cost_per_instr = {
            "baseline": 30.0,
            "opt0": 300.0,
            "opt1": 600.0,
            "opt2": 1100.0,
        }
        # PEP's three extra passes (build P-DAG, number, insert) are quick
        # relative to optimization (section 6.2).
        self.pep_pass_cost_per_instr = 60.0

    def tier_multiplier(self, tier: str) -> float:
        try:
            return self.tier_multipliers[tier]
        except KeyError:
            raise ValueError(f"unknown tier {tier!r}") from None

    def compile_cost(self, tier: str, instruction_count: int) -> float:
        try:
            per = self.compile_cost_per_instr[tier]
        except KeyError:
            raise ValueError(f"unknown tier {tier!r}") from None
        return per * instruction_count

    def scaled_handler(self, raw: float) -> float:
        """A handler cost after sampling-time dilation."""
        return raw / self.sampling_dilation

    def injected_charges(self) -> list:
        """Every charge the runtime can add to an accumulator *outside*
        a method's lowered op stream: yieldpoint-handler work, the PEP
        instrumentation passes, and per-tier compile costs.  Fixed-point
        certification (``lower_method``) scans these alongside the
        lowered costs — a single dirty injectable would desynchronise a
        folded chain from the sequential reference the moment a handler
        fires inside it."""
        return [
            self.scaled_handler(self.handler_stride),
            self.scaled_handler(self.handler_sample),
            self.scaled_handler(self.handler_expand_first),
            self.scaled_handler(self.handler_method_sample),
            self.pep_pass_cost_per_instr,
            *self.compile_cost_per_instr.values(),
        ]

    def chargeable_values(self) -> list:
        """Every constant this model can bake into lowered code at ANY
        tier (per-op base costs times each tier multiplier), plus the
        injected runtime charges.

        This is the *global* certification set for fixed-point folding:
        the carried accumulator (``st.cyc``) crosses method and tier
        boundaries, so a folded chain's base is grid-valued only if
        every method in the program — whatever its tier — charges grid
        values.  A superset of what any one method actually charges,
        which is exactly the conservatism certification wants.
        """
        base = [
            self.simple_op,
            self.mem_op,
            self.newarr_op,
            self.call_op,
            self.ret_op,
            self.emit_op,
            self.jmp_op,
            self.branch_op,
            self.branch_mislayout_penalty,
            self.yieldpoint_op,
            self.pep_init,
            self.pep_add,
            self.path_count_hash,
            self.path_count_array,
            self.edge_count,
        ]
        out = self.injected_charges()
        for mult in self.tier_multipliers.values():
            out.extend(value * mult for value in base)
        return out

    def copy(self) -> "CostModel":
        other = CostModel()
        for field in self.__slots__:
            value = getattr(self, field)
            if isinstance(value, dict):
                value = dict(value)
            setattr(other, field, value)
        return other
