"""Lightweight operation counters used across the library.

The cost-model experiments (E6) compare the paper's analytical cost bound
``tcost(C[[h]])`` against *measured* work.  Wall-clock time is too noisy and
machine-dependent for that comparison, so the evaluator, the IVM engines and
the circuit simulator all report abstract operation counts through an
:class:`OpCounter`.  Counting is optional — passing ``None`` disables it with
negligible overhead.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

__all__ = ["OpCounter", "maybe_count"]


class OpCounter:
    """A named-counter accumulator.

    Typical counter names produced by the evaluator:

    * ``"for_iterations"`` — elements iterated by ``for`` loops,
    * ``"product_pairs"`` — tuples produced by Cartesian products,
    * ``"union_merges"``  — element merges performed by bag unions,
    * ``"dict_lookups"``  — label-dictionary lookups,
    * ``"elements_emitted"`` — elements placed in result bags.

    The nesting function (:mod:`repro.shredding.nesting`) reports
    ``"nest_elements"`` — values passed through a compiled ``u`` closure.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def total(self) -> int:
        """Sum of all counters — the 'total work' scalar used in reports."""
        return sum(self._counts.values())

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        """Clear every counter."""
        self._counts.clear()

    def merge(self, other: "OpCounter") -> None:
        """Add all counters of ``other`` into this counter."""
        for name, value in other._counts.items():
            self.increment(name, value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value}" for name, value in self.items())
        return f"OpCounter({inner})"


def maybe_count(counter: Optional[OpCounter], name: str, amount: int = 1) -> None:
    """Increment ``counter`` if it is not ``None`` (shared convenience helper)."""
    if counter is not None:
        counter.increment(name, amount)
