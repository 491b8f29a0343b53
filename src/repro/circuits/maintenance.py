"""Circuits for view maintenance versus re-evaluation (Theorem 9).

Two circuit families are built over the FBag representation:

* :func:`build_update_circuit` — the NC0 *maintenance* circuit: the new view
  bits are ``view ⊎ delta``, i.e. per-slot addition modulo ``2^k`` of the
  stored multiplicity and the delta multiplicity.  Every output bit depends
  on at most ``2k`` input bits regardless of how many slots (how large a
  database) the view has — the constant-cone property that places
  maintenance in NC0.

* :func:`build_recompute_circuit` — a re-evaluation circuit in the style of
  the TC0 lower-bound discussion: each output multiplicity is the *sum* of an
  unbounded number of input multiplicities (the situation of ``flatten`` or a
  projection, where one output tuple aggregates contributions from the whole
  input).  Its output cones grow linearly with the number of contributing
  slots.

The E9 cell of ``tests/test_paper_claims.py`` sweeps the database size and
pins both cone sizes, showing the constant-vs-growing separation the paper
proves.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bag.bag import Bag
from repro.circuits.bitrep import FBagEncoding
from repro.circuits.gates import Circuit, GateRef
from repro.errors import CircuitError

__all__ = [
    "build_update_circuit",
    "build_recompute_circuit",
    "apply_update_circuit",
]


def build_update_circuit(num_slots: int, k: int) -> Circuit:
    """NC0 maintenance circuit: per-slot addition mod ``2^k`` of view and delta.

    Inputs: ``view_slot{i}_bit{j}`` and ``delta_slot{i}_bit{j}``; outputs
    ``out_slot{i}_bit{j}``.
    """
    if k < 1:
        raise CircuitError("multiplicities need at least one bit")
    circuit = Circuit(name=f"update[slots={num_slots},k={k}]")
    for slot in range(num_slots):
        view_bits = [circuit.add_input(f"view_slot{slot}_bit{bit}") for bit in range(k)]
        delta_bits = [circuit.add_input(f"delta_slot{slot}_bit{bit}") for bit in range(k)]
        summed = circuit.adder_mod(view_bits, delta_bits)
        for bit, gate in enumerate(summed):
            circuit.mark_output(f"out_slot{slot}_bit{bit}", gate)
    return circuit


def build_recompute_circuit(num_input_slots: int, k: int, num_outputs: int = 1) -> Circuit:
    """Re-evaluation circuit: each output multiplicity sums all input slots.

    Models the ``flatten``/projection situation in which the multiplicity of
    an output tuple depends on an unbounded number of input bits; the sum is
    taken modulo ``2^k`` with a ripple of bounded-fan-in adders, so the
    circuit is not constant-depth and its cones grow with ``num_input_slots``
    (the paper's point that NRC+ re-evaluation cannot live in NC0).
    """
    if num_input_slots < 1:
        raise CircuitError("need at least one input slot")
    circuit = Circuit(name=f"recompute[slots={num_input_slots},k={k}]")
    slot_bits: List[List[GateRef]] = []
    for slot in range(num_input_slots):
        slot_bits.append(
            [circuit.add_input(f"in_slot{slot}_bit{bit}") for bit in range(k)]
        )
    for output in range(num_outputs):
        accumulator = slot_bits[0]
        for slot in range(1, num_input_slots):
            accumulator = circuit.adder_mod(accumulator, slot_bits[slot])
        for bit, gate in enumerate(accumulator):
            circuit.mark_output(f"out{output}_bit{bit}", gate)
    return circuit


def apply_update_circuit(
    circuit: Circuit, view: FBagEncoding, delta: FBagEncoding
) -> Tuple[Dict[str, bool], Bag]:
    """Run the NC0 maintenance circuit on concrete encodings and decode the result."""
    if view.num_slots != delta.num_slots or view.k != delta.k:
        raise CircuitError("view and delta encodings must share layout")
    inputs: Dict[str, bool] = {}
    inputs.update(view.as_input_assignment(prefix="view_"))
    inputs.update(delta.as_input_assignment(prefix="delta_"))
    outputs = circuit.evaluate(inputs)
    bits = []
    for slot in range(view.num_slots):
        for bit in range(view.k):
            bits.append(outputs[f"out_slot{slot}_bit{bit}"])
    updated = FBagEncoding(view.domain, view.arity, view.k, tuple(bits))
    from repro.circuits.bitrep import decode_fbag

    return outputs, decode_fbag(updated)
