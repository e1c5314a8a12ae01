"""Edge profiles: taken/not-taken counters per bytecode branch.

This mirrors Jikes RVM's representation (paper section 4.2/4.3): one pair
of counters per *bytecode* branch, shared by every IR copy the optimizer
makes of that branch.  Both the baseline compiler's one-time
instrumentation and PEP's path-derived updates feed the same structure.

Counters live in one flat ``array('d')``: each branch owns an adjacent
pair of slots (taken at ``base``, not-taken at ``base + 1``) assigned in
first-record order, with a dict mapping :class:`BranchRef` to its base
slot.  The dict-shaped query/merge/clone API is unchanged — an
``array('d')`` element *is* a float64, so every count is bit-identical to
the old list-of-two representation — and the slot indirection is what
lets the buffered sampling datapath (DESIGN.md §10) turn a path's
expansion into a precomputed integer slot array replayed with
:meth:`record_slots`, one plain loop per drained entry.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Sequence, Tuple

from repro.bytecode.method import BranchRef


class EdgeProfile:
    """Mutable taken/not-taken counters keyed by :class:`BranchRef`."""

    __slots__ = ("_slots", "_arr")

    def __init__(self) -> None:
        # branch -> base index of its (taken, not_taken) pair in _arr.
        self._slots: Dict[BranchRef, int] = {}
        self._arr: "array[float]" = array("d")

    # -- updates -------------------------------------------------------------

    def record(self, branch: BranchRef, taken: bool, count: float = 1.0) -> None:
        base = self._slots.get(branch)
        arr = self._arr
        if base is None:
            base = len(arr)
            self._slots[branch] = base
            arr.append(0.0)
            arr.append(0.0)
        arr[base if taken else base + 1] += count

    def slot_for(self, branch: BranchRef, taken: bool) -> int:
        """The arm's flat slot index, allocating the pair on first use.

        Slot indices stay valid for the profile's lifetime (slots are
        never freed; :meth:`clear` invalidates them all).
        """
        base = self._slots.get(branch)
        if base is None:
            arr = self._arr
            base = len(arr)
            self._slots[branch] = base
            arr.append(0.0)
            arr.append(0.0)
        return base if taken else base + 1

    def record_slots(self, slots: Sequence[int], count: float) -> None:
        """Add ``count`` to every arm slot in ``slots`` (batched update)."""
        arr = self._arr
        for slot in slots:
            arr[slot] += count

    def merge(self, other: "EdgeProfile") -> None:
        arr_o = other._arr
        arr = self._arr
        slots = self._slots
        for branch, base_o in other._slots.items():
            base = slots.get(branch)
            if base is None:
                slots[branch] = len(arr)
                arr.append(arr_o[base_o])
                arr.append(arr_o[base_o + 1])
            else:
                arr[base] += arr_o[base_o]
                arr[base + 1] += arr_o[base_o + 1]

    def clear(self) -> None:
        self._slots.clear()
        del self._arr[:]

    # -- queries ---------------------------------------------------------------

    def arm_count(self, branch: BranchRef, taken: bool) -> float:
        base = self._slots.get(branch)
        if base is None:
            return 0.0
        return self._arr[base] if taken else self._arr[base + 1]

    def total(self, branch: BranchRef) -> float:
        base = self._slots.get(branch)
        if base is None:
            return 0.0
        return self._arr[base] + self._arr[base + 1]

    def bias(self, branch: BranchRef, default: float = 0.5) -> float:
        """Fraction of executions in which the branch was taken."""
        base = self._slots.get(branch)
        if base is None:
            return default
        taken = self._arr[base]
        total = taken + self._arr[base + 1]
        if total == 0:
            return default
        return taken / total

    def branches(self) -> Iterator[BranchRef]:
        return iter(self._slots)

    def items(self) -> Iterator[Tuple[BranchRef, Tuple[float, float]]]:
        arr = self._arr
        for branch, base in self._slots.items():
            yield branch, (arr[base], arr[base + 1])

    def total_executions(self) -> float:
        # Pairwise (taken + not_taken) first, exactly as the old
        # list-of-two representation summed, so non-integral counts
        # cannot drift by a ulp.
        arr = self._arr
        return sum(arr[base] + arr[base + 1] for base in self._slots.values())

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, branch: BranchRef) -> bool:
        return branch in self._slots

    # -- transforms --------------------------------------------------------------

    def copy(self) -> "EdgeProfile":
        other = EdgeProfile()
        other._slots.update(self._slots)
        other._arr = array("d", self._arr)
        return other

    def flipped(self) -> "EdgeProfile":
        """Swap taken/not-taken counts for every branch.

        This is the paper's "flipped" profile (section 6.5): a 90%-taken
        branch becomes 10%-taken, used to show that profile-guided
        optimizations really are sensitive to profile accuracy.
        """
        other = EdgeProfile()
        arr = self._arr
        for branch, base in self._slots.items():
            other._slots[branch] = len(other._arr)
            other._arr.append(arr[base + 1])
            other._arr.append(arr[base])
        return other

    def __repr__(self) -> str:
        return f"<EdgeProfile {len(self._slots)} branches>"
