"""Labels: the names given to inner bags by the shredding transformation.

Following Section 5.1, a label is a pair ``⟨ι, ε⟩`` of

* a *static index* ``ι`` that uniquely identifies either the ``sng_ι(e)``
  occurrence the label replaces or the input-bag occurrence it names, and
* the *value assignment* ``ε`` for the free element variables of the replaced
  inner query (a tuple of base values and labels).

Incorporating ``ε`` in the label lets labels be created independently from
their defining dictionary and guarantees that a label's definition is
determined by the label itself — the property used to prove consistency of
shredded values (Appendix C.3).

:class:`LabelFactory` produces the fresh indices used when shredding *input*
values (the ``D_C`` mappings of Figure 9), where every inner bag receives its
own label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Tuple

__all__ = ["Label", "LabelFactory"]


@dataclass(frozen=True, eq=False)
class Label:
    """An immutable, hashable label ``⟨ι, ε⟩``.

    Labels sit inside every flat shredded tuple, so they are hashed on every
    dict/bucket operation of the update path; the structural hash is computed
    once and cached (``ε`` may itself contain labels, so hashing recurses).
    """

    iota: str
    values: Tuple[Any, ...] = ()

    def __eq__(self, other: Any) -> bool:
        if other is self:
            return True
        if not isinstance(other, Label):
            return NotImplemented
        return self.iota == other.iota and self.values == other.values

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.iota, self.values))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        """Pickle without the cached hash: string hashing is seeded per
        process, so a captured hash would be stale in the receiving one.
        Equality is structural (``iota`` + ``values``), so labels survive a
        pickle round-trip — the property the WAL's and checkpoints' pickle
        fallback relies on when a recovering process reloads them."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def render(self) -> str:
        """Human-readable rendering used by the pretty printer."""
        if not self.values:
            return f"⟨{self.iota}⟩"
        rendered = ", ".join(str(value) for value in self.values)
        return f"⟨{self.iota}, {rendered}⟩"

    def __repr__(self) -> str:
        return f"Label({self.iota!r}, {self.values!r})"


class LabelFactory:
    """Produces fresh static indices for input-value shredding.

    Each call to :meth:`fresh` returns a new :class:`Label` whose index has
    never been produced by this factory before.  The ``prefix`` makes label
    provenance readable in debug output (e.g. ``"M.inner"`` for inner bags of
    relation ``M``).
    """

    def __init__(self, prefix: str = "lbl") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self, hint: str = "") -> Label:
        """Return a fresh label with empty value part."""
        number = next(self._counter)
        if hint:
            iota = f"{self._prefix}.{hint}.{number}"
        else:
            iota = f"{self._prefix}.{number}"
        return Label(iota)

    def fresh_index(self, hint: str = "") -> str:
        """Return a fresh static index (without wrapping it in a Label)."""
        return self.fresh(hint).iota
