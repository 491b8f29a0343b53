"""The JSON wire protocol: values, schemas, queries and updates over HTTP.

Everything the server sends or accepts is plain JSON.  This module owns the
four translation layers:

* **values** — nested bag values travel as JSON: tuples become lists, inner
  bags become ``{"bag": [[element, multiplicity], ...]}`` objects, labels
  (which only ever travel server → client, inside shredded artifacts)
  become ``{"label": "..."}`` strings.  :func:`encode_value` /
  :func:`decode_value` are exact inverses on label-free values.
* **schemas** — a dataset is declared as ``{"name": ..., "fields": [...]}``
  where each field is either a string (a base-typed column) or
  ``{"name": ..., "bag": [...]}`` for a nested collection column;
  :func:`record_from_spec` builds the :class:`~repro.surface.Record`.
* **queries** — views are declared as a JSON comprehension spec compiled
  onto the surface DSL by :func:`query_from_spec`::

      {"from": "M", "var": "m",
       "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
       "select": [["field", "m", "name"]]}

  Select items are ``["field", var, name]``, ``["row", var]`` or
  ``["nest", <spec>]`` (whose sub-spec sees the outer row variables, so the
  paper's nested ``related`` query is expressible; at most
  :data:`MAX_NEST_DEPTH` levels deep); predicates are
  ``["and"|"or"|"not", ...]`` over ``["eq"|"ne"|"lt"|"le"|"gt"|"ge", a, b]``
  comparisons of ``["field", var, name]`` / ``["const", value]`` operands.
* **updates** — an apply request carries
  ``{"updates": [{relation: {"rows": [...]}}, ...]}`` where each delta is
  ``{"rows": [...]}`` (insertions) or ``{"pairs": [[row, mult], ...]}``
  (mixed insert/delete deltas via negative multiplicities);
  :func:`decode_update` produces the engine's :class:`Update`.

Protocol violations raise :class:`ProtocolError`, which the server maps to
HTTP 400 with a structured ``{"error": {"code", "message"}}`` body.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bag.bag import Bag
from repro.bag.values import is_base_value
from repro.ivm.updates import Update
from repro.labels import Label
from repro.nrc.types import BagType
from repro.surface.dsl import Condition, Dataset, Query, RowVar, nest
from repro.surface.schema import Record, STRING

__all__ = [
    "ProtocolError",
    "decode_delta",
    "decode_update",
    "decode_value",
    "encode_bag",
    "encode_bag_page",
    "encode_value",
    "fields_spec_of",
    "query_from_spec",
    "record_from_spec",
]


class ProtocolError(ValueError):
    """A malformed wire-protocol payload (server answers HTTP 400)."""

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------------- #
# Values
# --------------------------------------------------------------------------- #
def encode_value(value: Any) -> Any:
    """Encode one nested bag value as JSON-compatible plain data."""
    if isinstance(value, tuple):
        return [encode_value(component) for component in value]
    if isinstance(value, Bag):
        return {"bag": [[encode_value(el), mult] for el, mult in value.items()]}
    if isinstance(value, Label):
        return {"label": value.render()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ProtocolError(f"value {value!r} is not encodable on the wire")


def decode_value(value: Any) -> Any:
    """Decode a wire value back into the engine's representation.

    Lists become tuples, ``{"bag": pairs}`` objects become :class:`Bag`s.
    Labels are deliberately not decodable — they are engine-internal names
    and only ever travel server → client.
    """
    if isinstance(value, list):
        return tuple(decode_value(component) for component in value)
    if isinstance(value, dict):
        if "bag" in value and len(value) == 1:
            return _decode_pairs(value["bag"])
        if "label" in value:
            raise ProtocolError("labels cannot be sent to the server")
        raise ProtocolError(f"unrecognized wire object with keys {sorted(value)}")
    return value


def _decode_pairs(pairs: Any) -> Bag:
    if not isinstance(pairs, list):
        raise ProtocolError("bag pairs must be a list of [element, multiplicity]")
    decoded: List[Tuple[Any, int]] = []
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProtocolError(f"bad bag pair {pair!r}")
        element, multiplicity = pair
        if not isinstance(multiplicity, int) or isinstance(multiplicity, bool):
            raise ProtocolError(f"bag multiplicity must be an int, got {multiplicity!r}")
        decoded.append((decode_value(element), multiplicity))
    return Bag.from_pairs(decoded)


def encode_bag(bag: Bag) -> Dict[str, Any]:
    """Encode a top-level bag (dataset contents, view result) with its sizes."""
    return {
        "pairs": [[encode_value(el), mult] for el, mult in bag.items()],
        "distinct": bag.distinct_size(),
        "cardinality": bag.cardinality(),
    }


def encode_bag_page(
    bag: Bag, limit: Optional[int] = None, offset: int = 0
) -> Dict[str, Any]:
    """Encode one page of a top-level bag without materializing the rest.

    Slices ``bag.items()`` lazily, so a page never copies the rest of the
    bag.  ``limit=None`` with ``offset=0``
    reduces to :func:`encode_bag` exactly.  Paging is only meaningful
    against one pinned snapshot: a frozen bag's iteration order is stable,
    so pages taken at the same ``version`` (the ETag) tile the full result
    without overlap or gaps.  ``distinct``/``cardinality`` always describe
    the whole bag; the ``page`` object (present whenever a window was
    requested) describes the slice.
    """
    if offset < 0:
        raise ProtocolError("'offset' must be a non-negative integer")
    if limit is not None and limit < 0:
        raise ProtocolError("'limit' must be a non-negative integer")
    stop = None if limit is None else offset + limit
    pairs = [
        [encode_value(element), multiplicity]
        for element, multiplicity in islice(bag.items(), offset, stop)
    ]
    distinct = bag.distinct_size()
    encoded: Dict[str, Any] = {
        "pairs": pairs,
        "distinct": distinct,
        "cardinality": bag.cardinality(),
    }
    if limit is not None or offset:
        encoded["page"] = {
            "offset": offset,
            "limit": limit,
            "returned": len(pairs),
            "remaining": max(0, distinct - offset - len(pairs)),
        }
    return encoded


# --------------------------------------------------------------------------- #
# Updates
# --------------------------------------------------------------------------- #
def decode_delta(payload: Any) -> Bag:
    """One relation's delta: ``{"rows": [...]}`` or ``{"pairs": [[row, m]...]}``."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"a relation delta must be an object, got {payload!r}")
    if "rows" in payload:
        rows = payload["rows"]
        if not isinstance(rows, list):
            raise ProtocolError("delta rows must be a list")
        return Bag(decode_value(row) for row in rows)
    if "pairs" in payload:
        return _decode_pairs(payload["pairs"])
    raise ProtocolError("a relation delta needs 'rows' or 'pairs'")


def decode_update(payload: Any) -> Update:
    """One update: a ``{relation: delta}`` mapping."""
    if not isinstance(payload, dict) or not payload:
        raise ProtocolError("an update must be a non-empty {relation: delta} object")
    relations = {}
    for name, delta in payload.items():
        if not isinstance(name, str):
            raise ProtocolError(f"relation names must be strings, got {name!r}")
        relations[name] = decode_delta(delta)
    return Update(relations=relations)


# --------------------------------------------------------------------------- #
# Schemas
# --------------------------------------------------------------------------- #
def record_from_spec(name: str, fields: Any) -> Record:
    """Build a :class:`Record` from the wire fields spec.

    Each field is a string (base-typed column) or a
    ``{"name": ..., "bag": [...]}`` object whose ``bag`` lists the fields of
    the nested collection's element record.
    """
    if not isinstance(fields, list) or not fields:
        raise ProtocolError(f"dataset {name!r} needs a non-empty fields list")
    built: List[Tuple[str, Any]] = []
    for field in fields:
        if isinstance(field, str):
            built.append((field, STRING))
        elif isinstance(field, dict) and "name" in field and "bag" in field:
            inner = record_from_spec(f"{name}_{field['name']}", field["bag"])
            built.append((str(field["name"]), BagType(inner.product_type())))
        else:
            raise ProtocolError(
                f"dataset {name!r}: each field must be a string or "
                f"{{'name', 'bag'}} object, got {field!r}"
            )
    return Record(name, tuple(built))


def fields_spec_of(record: Record) -> List[Any]:
    """The wire fields spec of a registered record (inverse of the above)."""
    spec: List[Any] = []
    for field_name, type_ in record.fields:
        if isinstance(type_, BagType):
            # Nested columns were registered through record_from_spec, so the
            # element record is reconstructible only as anonymous columns.
            arity = getattr(type_.element, "arity", 1)
            spec.append({"name": field_name, "bag": [f"c{i}" for i in range(arity)]})
        else:
            spec.append(field_name)
    return spec


# --------------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------------- #
_COMPARISONS = ("eq", "ne", "lt", "le", "gt", "ge")

#: The deepest chain of ``["nest", ...]`` select items a view spec may
#: declare.  Every level becomes one walk nested inside its parent's, so a
#: much deeper chain would exhaust the interpreter's stack at the view's first
#: materialisation; the spec is refused up front instead.
MAX_NEST_DEPTH = 64


def query_from_spec(
    spec: Any,
    datasets: Mapping[str, Dataset],
    outer_vars: Optional[Dict[str, RowVar]] = None,
) -> Query:
    """Compile a JSON comprehension spec onto the surface DSL.

    ``datasets`` maps registered dataset names to their handles;
    ``outer_vars`` carries the row variables of enclosing comprehensions so
    nested sub-queries can correlate with them — one per enclosing level,
    which is how the :data:`MAX_NEST_DEPTH` bound is counted.
    """
    if len(outer_vars or ()) > MAX_NEST_DEPTH:
        raise ProtocolError(f"query spec nests deeper than {MAX_NEST_DEPTH} levels")
    if not isinstance(spec, dict):
        raise ProtocolError(f"a query spec must be an object, got {spec!r}")
    source_name = spec.get("from")
    if not isinstance(source_name, str):
        raise ProtocolError("query spec needs a 'from' dataset name")
    dataset = datasets.get(source_name)
    if dataset is None:
        raise ProtocolError(f"unknown dataset {source_name!r}", code="not_found")
    var_name = spec.get("var", source_name.lower())
    if not isinstance(var_name, str) or not var_name:
        raise ProtocolError("query 'var' must be a non-empty string")
    scope: Dict[str, RowVar] = dict(outer_vars or {})
    if var_name in scope:
        raise ProtocolError(f"row variable {var_name!r} shadows an outer variable")
    row = dataset.row(var_name)
    scope[var_name] = row
    query = dataset.iterate(row)
    where = spec.get("where")
    if where is not None:
        query = query.where(_condition_from_spec(where, scope))
    select = spec.get("select")
    if select is not None:
        if not isinstance(select, list) or not select:
            raise ProtocolError("query 'select' must be a non-empty list")
        items = [_select_item_from_spec(item, scope, datasets) for item in select]
        query = query.select(*items)
    unknown = set(spec) - {"from", "var", "where", "select"}
    if unknown:
        raise ProtocolError(f"unknown query spec keys {sorted(unknown)}")
    return query


def _row_var(scope: Mapping[str, RowVar], name: Any) -> RowVar:
    row = scope.get(name) if isinstance(name, str) else None
    if row is None:
        raise ProtocolError(f"unknown row variable {name!r}")
    return row


def _operand_from_spec(spec: Any, scope: Mapping[str, RowVar]):
    if not isinstance(spec, list) or not spec:
        raise ProtocolError(f"bad operand {spec!r}")
    kind = spec[0]
    if kind == "field":
        if len(spec) != 3:
            raise ProtocolError("'field' operands are ['field', var, name]")
        return _row_var(scope, spec[1]).field(str(spec[2]))
    if kind == "const":
        if len(spec) != 2:
            raise ProtocolError("'const' operands are ['const', value]")
        if not is_base_value(spec[1]):
            raise ProtocolError(f"'const' operands are base values, got {spec[1]!r}")
        return spec[1]
    raise ProtocolError(f"unknown operand kind {kind!r}")


def _condition_from_spec(spec: Any, scope: Mapping[str, RowVar]) -> Condition:
    if not isinstance(spec, list) or not spec:
        raise ProtocolError(f"bad predicate {spec!r}")
    kind = spec[0]
    if kind == "and" or kind == "or":
        if len(spec) < 3:
            raise ProtocolError(f"'{kind}' needs at least two sub-predicates")
        parts = [_condition_from_spec(part, scope) for part in spec[1:]]
        combined = parts[0]
        for part in parts[1:]:
            combined = (combined & part) if kind == "and" else (combined | part)
        return combined
    if kind == "not":
        if len(spec) != 2:
            raise ProtocolError("'not' takes exactly one sub-predicate")
        return ~_condition_from_spec(spec[1], scope)
    if kind in _COMPARISONS:
        if len(spec) != 3:
            raise ProtocolError(f"'{kind}' comparisons take two operands")
        lhs = _operand_from_spec(spec[1], scope)
        rhs = _operand_from_spec(spec[2], scope)
        # At least one side must be a field reference (the DSL's operators
        # live on FieldRef); const-vs-const comparisons are pointless anyway.
        from repro.surface.dsl import FieldRef

        if isinstance(lhs, FieldRef):
            op = {"eq": lhs.__eq__, "ne": lhs.__ne__, "lt": lhs.__lt__,
                  "le": lhs.__le__, "gt": lhs.__gt__, "ge": lhs.__ge__}[kind]
            return op(rhs)
        if isinstance(rhs, FieldRef):
            flipped = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge",
                       "gt": "lt", "ge": "le"}[kind]
            op = {"eq": rhs.__eq__, "ne": rhs.__ne__, "lt": rhs.__lt__,
                  "le": rhs.__le__, "gt": rhs.__gt__, "ge": rhs.__ge__}[flipped]
            return op(lhs)
        raise ProtocolError(f"'{kind}' needs at least one ['field', ...] operand")
    raise ProtocolError(f"unknown predicate kind {kind!r}")


def _select_item_from_spec(
    spec: Any, scope: Dict[str, RowVar], datasets: Mapping[str, Dataset]
):
    if not isinstance(spec, list) or not spec:
        raise ProtocolError(f"bad select item {spec!r}")
    kind = spec[0]
    if kind == "field":
        if len(spec) != 3:
            raise ProtocolError("'field' select items are ['field', var, name]")
        return _row_var(scope, spec[1]).field(str(spec[2]))
    if kind == "row":
        if len(spec) != 2:
            raise ProtocolError("'row' select items are ['row', var]")
        return _row_var(scope, spec[1]).whole()
    if kind == "nest":
        if len(spec) != 2:
            raise ProtocolError("'nest' select items are ['nest', query-spec]")
        return nest(query_from_spec(spec[1], datasets, outer_vars=scope))
    raise ProtocolError(f"unknown select item kind {kind!r}")
