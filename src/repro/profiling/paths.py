"""Path profiles: per-method frequency tables keyed by path number.

PEP's yieldpoint handler increments the frequency of the sampled path
number (paper section 3.3); the full-instrumentation configurations update
the same structure at every path end.  Path numbers are only meaningful
together with the method's P-DAG, which the compiled-code registry keeps.

Each method's table is one dict from path number to frequency
(DESIGN.md §10), iterated in the order its paths were first recorded.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


class PathProfile:
    """Nested counters: method name -> path number -> frequency."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[int, float]] = {}

    def record(self, method: str, path_number: int, count: float = 1.0) -> None:
        table = self._counts.get(method)
        if table is not None:
            table[path_number] = table.get(path_number, 0.0) + count
        else:
            self._counts[method] = {path_number: 0.0 + count}

    def frequency(self, method: str, path_number: int) -> float:
        table = self._counts.get(method)
        if table is None:
            return 0.0
        return table.get(path_number, 0.0)

    def method_paths(self, method: str) -> Dict[int, float]:
        return dict(self._counts.get(method, {}))

    def methods(self) -> Iterator[str]:
        return iter(self._counts)

    def items(self) -> Iterator[Tuple[str, int, float]]:
        for method, table in self._counts.items():
            for path_number, freq in table.items():
                yield method, path_number, freq

    def distinct_paths(self) -> int:
        return sum(len(table) for table in self._counts.values())

    def merge(self, other: "PathProfile") -> None:
        for method, path_number, freq in other.items():
            self.record(method, path_number, freq)

    def copy(self) -> "PathProfile":
        clone = PathProfile()
        for method, table in self._counts.items():
            clone._counts[method] = dict(table)
        return clone

    def clear(self) -> None:
        self._counts.clear()

    def __len__(self) -> int:
        return self.distinct_paths()

    def __repr__(self) -> str:
        return (
            f"<PathProfile {len(self._counts)} methods, "
            f"{self.distinct_paths()} paths>"
        )
