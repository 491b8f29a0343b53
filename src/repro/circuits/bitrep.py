"""Bit-level representations of shredded views and nested values (Section 5.4).

Two encodings from the paper's complexity argument:

* **FBag** — the natural bit-sequence representation of a *flat* bag: for
  every tuple constructible from the active domain (in lexicographic order)
  we store its multiplicity modulo ``2^k`` as ``k`` bits.  Shredded views are
  flat, so this is the representation the NC0 maintenance circuits operate
  on.
* **NStr** — the string representation of a *nested* value as a relation
  ``S(p, s)`` mapping string positions to symbols (Example 9): delimiters
  ``{ } ⟨ ⟩ ,`` plus the active-domain symbols.  This is the input
  representation used by the TC0 shredding construction (Theorem 14).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.bag.bag import Bag
from repro.bag.values import is_base_value
from repro.errors import CircuitError

__all__ = [
    "ActiveDomain",
    "FBagEncoding",
    "encode_fbag",
    "decode_fbag",
    "nested_to_symbols",
    "symbols_to_position_relation",
]


@dataclass(frozen=True)
class ActiveDomain:
    """An ordered active domain of base symbols."""

    symbols: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise CircuitError("active domain symbols must be distinct")

    @classmethod
    def from_bag(cls, bag: Bag) -> "ActiveDomain":
        """Collect the base symbols appearing in a flat bag, in sorted order."""
        symbols = set()
        for element in bag.elements():
            for component in element if isinstance(element, tuple) else (element,):
                if not is_base_value(component):
                    raise CircuitError("FBag encoding requires flat tuples of base values")
                symbols.add(component)
        return cls(tuple(sorted(symbols, key=repr)))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: Any) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError as error:
            raise CircuitError(f"symbol {symbol!r} not in active domain") from error


@dataclass(frozen=True)
class FBagEncoding:
    """A concrete FBag bit string together with its layout metadata."""

    domain: ActiveDomain
    arity: int
    k: int
    bits: Tuple[bool, ...]

    @property
    def num_slots(self) -> int:
        return self.domain.size**self.arity

    def bit_names(self) -> List[str]:
        """Stable bit names (used to wire the encoding into circuits)."""
        return [f"slot{slot}_bit{bit}" for slot in range(self.num_slots) for bit in range(self.k)]

    def as_input_assignment(self, prefix: str = "") -> Dict[str, bool]:
        """The bits as a circuit input assignment (optionally name-prefixed)."""
        return {
            f"{prefix}{name}": value for name, value in zip(self.bit_names(), self.bits)
        }


def encode_fbag(bag: Bag, domain: ActiveDomain, arity: int, k: int) -> FBagEncoding:
    """Encode a flat bag of ``arity``-tuples with ``k``-bit multiplicities."""
    num_slots = domain.size**arity
    modulus = 1 << k
    multiplicities = [0] * num_slots
    for element, multiplicity in bag.items():
        row = element if isinstance(element, tuple) else (element,)
        if len(row) != arity:
            raise CircuitError(f"tuple {row!r} does not have arity {arity}")
        slot = 0
        for component in row:
            slot = slot * domain.size + domain.index(component)
        multiplicities[slot] = (multiplicities[slot] + multiplicity) % modulus
    bits: List[bool] = []
    for value in multiplicities:
        for bit in range(k):
            bits.append(bool((value >> bit) & 1))
    return FBagEncoding(domain, arity, k, tuple(bits))


def decode_fbag(encoding: FBagEncoding) -> Bag:
    """Decode an FBag bit string back into a bag (multiplicities mod ``2^k``)."""
    pairs = []
    for slot_index, row in enumerate(itertools.product(encoding.domain.symbols, repeat=encoding.arity)):
        value = 0
        for bit in range(encoding.k):
            if encoding.bits[slot_index * encoding.k + bit]:
                value |= 1 << bit
        if value:
            # Decoded elements are always arity-tuples, even for arity 1, so
            # that encode/decode round-trips are deterministic.
            pairs.append((row, value))
    return Bag.from_pairs(pairs)


# --------------------------------------------------------------------------- #
# NStr: the string representation of nested values (Example 9)
# --------------------------------------------------------------------------- #
def nested_to_symbols(value: Any) -> List[Any]:
    """Serialize a nested value into the paper's symbol string.

    Bags render as ``{ … }`` with comma separators (elements ordered
    deterministically), tuples as ``⟨ … ⟩``; base values are their own
    symbol.  Multiplicities are expanded (the NStr representation of the
    paper encodes the value itself, not a multiplicity table).
    """
    symbols: List[Any] = []

    def _emit(node: Any) -> None:
        if is_base_value(node):
            symbols.append(node)
            return
        if isinstance(node, tuple):
            symbols.append("⟨")
            for index, component in enumerate(node):
                if index:
                    symbols.append(",")
                _emit(component)
            symbols.append("⟩")
            return
        if isinstance(node, Bag):
            symbols.append("{")
            expanded = []
            for element, multiplicity in node.items():
                expanded.extend([element] * max(multiplicity, 0))
            expanded.sort(key=repr)
            for index, element in enumerate(expanded):
                if index:
                    symbols.append(",")
                _emit(element)
            symbols.append("}")
            return
        raise CircuitError(f"cannot serialize {node!r}")

    _emit(value)
    return symbols


def symbols_to_position_relation(symbols: Sequence[Any]) -> Bag:
    """The relation ``S(p, s)`` mapping 1-based positions to symbols."""
    return Bag((position + 1, symbol) for position, symbol in enumerate(symbols))
