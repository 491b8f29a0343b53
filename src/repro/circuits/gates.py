"""A small gate-level circuit model with complexity metering.

Section 5.4 separates incremental maintenance (NC0 — bounded fan-in gates,
constant depth) from re-evaluation (TC0 — unbounded fan-in and/or/majority
gates, constant depth).  Since we cannot run real circuit families, we build
them explicitly and *measure* the quantities that the complexity classes are
about:

* **depth** — longest input-to-output path,
* **gate count** — circuit size,
* **cone size** — for each output bit, how many distinct input bits it
  depends on.  NC0 means every output cone has constant size (independent of
  the database size); TC0 circuits for re-evaluation have cones that grow
  with the input.

Gates: ``INPUT``, ``CONST``, ``NOT`` (fan-in 1), ``AND``/``OR``/``XOR``
(fan-in 2 — bounded), and ``MAJ`` (unbounded fan-in majority, the TC0 gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import CircuitError

__all__ = ["Circuit", "GateRef"]

_BOUNDED_FANIN = {"NOT": 1, "AND": 2, "OR": 2, "XOR": 2}


@dataclass(frozen=True)
class GateRef:
    """Opaque handle to a gate inside a :class:`Circuit`."""

    index: int


class Circuit:
    """A DAG of gates with named input and output bits."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._kinds: List[str] = []
        self._inputs_of: List[Tuple[int, ...]] = []
        self._const_values: Dict[int, bool] = {}
        self._input_names: List[str] = []
        self._input_index: Dict[str, int] = {}
        self._outputs: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_input(self, name: str) -> GateRef:
        if name in self._input_index:
            raise CircuitError(f"duplicate input bit {name!r}")
        index = self._new_gate("INPUT", ())
        self._input_index[name] = index
        self._input_names.append(name)
        return GateRef(index)

    def add_const(self, value: bool) -> GateRef:
        index = self._new_gate("CONST", ())
        self._const_values[index] = bool(value)
        return GateRef(index)

    def add_gate(self, kind: str, inputs: Sequence[GateRef]) -> GateRef:
        kind = kind.upper()
        if kind in _BOUNDED_FANIN and len(inputs) != _BOUNDED_FANIN[kind]:
            raise CircuitError(
                f"{kind} gates take exactly {_BOUNDED_FANIN[kind]} input(s), got {len(inputs)}"
            )
        if kind not in _BOUNDED_FANIN and kind != "MAJ":
            raise CircuitError(f"unknown gate kind {kind!r}")
        if kind == "MAJ" and not inputs:
            raise CircuitError("MAJ gates need at least one input")
        index = self._new_gate(kind, tuple(ref.index for ref in inputs))
        return GateRef(index)

    def mark_output(self, name: str, gate: GateRef) -> None:
        self._outputs.append((name, gate.index))

    def _new_gate(self, kind: str, inputs: Tuple[int, ...]) -> int:
        for input_index in inputs:
            if input_index >= len(self._kinds):
                raise CircuitError("gate wired to a not-yet-created gate")
        self._kinds.append(kind)
        self._inputs_of.append(inputs)
        return len(self._kinds) - 1

    # Convenience compositions -------------------------------------------
    def xor(self, a: GateRef, b: GateRef) -> GateRef:
        return self.add_gate("XOR", (a, b))

    def and_(self, a: GateRef, b: GateRef) -> GateRef:
        return self.add_gate("AND", (a, b))

    def or_(self, a: GateRef, b: GateRef) -> GateRef:
        return self.add_gate("OR", (a, b))

    def not_(self, a: GateRef) -> GateRef:
        return self.add_gate("NOT", (a,))

    def full_adder(self, a: GateRef, b: GateRef, carry: GateRef) -> Tuple[GateRef, GateRef]:
        """Return ``(sum, carry_out)`` built from bounded fan-in gates."""
        partial = self.xor(a, b)
        total = self.xor(partial, carry)
        carry_out = self.or_(self.and_(a, b), self.and_(partial, carry))
        return total, carry_out

    def adder_mod(self, a_bits: Sequence[GateRef], b_bits: Sequence[GateRef]) -> List[GateRef]:
        """Ripple-carry addition modulo ``2^k`` (k = len(a_bits))."""
        if len(a_bits) != len(b_bits):
            raise CircuitError("adder operands must have the same width")
        carry = self.add_const(False)
        result: List[GateRef] = []
        for a_bit, b_bit in zip(a_bits, b_bits):
            total, carry = self.full_adder(a_bit, b_bit, carry)
            result.append(total)
        return result

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def gate_count(self) -> int:
        return len(self._kinds)

    def num_inputs(self) -> int:
        return len(self._input_names)

    def depth(self) -> int:
        """Longest path from any input/constant to any output gate."""
        depths = [0] * len(self._kinds)
        for index, inputs in enumerate(self._inputs_of):
            if inputs:
                depths[index] = 1 + max(depths[i] for i in inputs)
        if not self._outputs:
            return 0
        return max(depths[index] for _, index in self._outputs)

    def max_fanin(self) -> int:
        return max((len(inputs) for inputs in self._inputs_of), default=0)

    def uses_majority(self) -> bool:
        return any(kind == "MAJ" for kind in self._kinds)

    def cone_sizes(self) -> Dict[str, int]:
        """For every output bit, the number of distinct input bits in its cone."""
        cones: List[FrozenSet[int]] = []
        for index, (kind, inputs) in enumerate(zip(self._kinds, self._inputs_of)):
            if kind == "INPUT":
                cones.append(frozenset({index}))
            elif kind == "CONST":
                cones.append(frozenset())
            else:
                cone: FrozenSet[int] = frozenset()
                for input_index in inputs:
                    cone |= cones[input_index]
                cones.append(cone)
        return {name: len(cones[index]) for name, index in self._outputs}

    def max_cone_size(self) -> int:
        sizes = self.cone_sizes()
        return max(sizes.values()) if sizes else 0

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, inputs: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate the circuit on a complete input assignment."""
        values: List[bool] = [False] * len(self._kinds)
        for name, index in self._input_index.items():
            if name not in inputs:
                raise CircuitError(f"missing value for input bit {name!r}")
            values[index] = bool(inputs[name])
        for index, (kind, gate_inputs) in enumerate(zip(self._kinds, self._inputs_of)):
            if kind == "INPUT":
                continue
            if kind == "CONST":
                values[index] = self._const_values[index]
            elif kind == "NOT":
                values[index] = not values[gate_inputs[0]]
            elif kind == "AND":
                values[index] = values[gate_inputs[0]] and values[gate_inputs[1]]
            elif kind == "OR":
                values[index] = values[gate_inputs[0]] or values[gate_inputs[1]]
            elif kind == "XOR":
                values[index] = values[gate_inputs[0]] != values[gate_inputs[1]]
            elif kind == "MAJ":
                true_count = sum(1 for i in gate_inputs if values[i])
                values[index] = 2 * true_count > len(gate_inputs)
            else:  # pragma: no cover - guarded at construction
                raise CircuitError(f"unknown gate kind {kind!r}")
        return {name: values[index] for name, index in self._outputs}

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, gates={self.gate_count()}, depth={self.depth()}, "
            f"inputs={self.num_inputs()}, outputs={len(self._outputs)})"
        )
