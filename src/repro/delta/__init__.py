"""Delta derivation for IncNRC+: delta rules and degrees."""

from repro.delta.degree import degree
from repro.delta.rules import delta, delta_var_name, depends_on

__all__ = [
    "degree",
    "delta",
    "delta_var_name",
    "depends_on",
]
