"""Declarative sweep grids: axes → frozen cells with stable ids.

Every experiment in this repository is a sweep: some cross-product of
deployment modes, seeds and scenario parameters, where each point builds
a *fresh* simulator, runs it to completion, and reduces the per-cell
measurements into a result table.  Before :mod:`repro.sweep`, each of
the ~20 experiment modules hand-rolled that loop; now the loop is data.

A :class:`SweepGrid` declares the axes (``grid.axis("mode", names)``)
and materialises the cross-product as a tuple of frozen :class:`Cell`
objects, ordered row-major in declaration order — the *cell order* that
every runner (serial or sharded) merges results back into, which is what
makes output byte-identical for any worker count.  Ragged sweeps whose
points are not a cross-product (density's per-mode ``admitted..1``
ranges) enumerate their cells explicitly via :meth:`SweepGrid.explicit`.

Cells carry only plain, picklable values (strings, numbers, tuples) so
they can cross a process boundary to a shard worker; anything heavier
(mode backends, cost models) is resolved inside the cell function from
the registry or the shared config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Cell",
    "CellResult",
    "SweepGrid",
    "canonical",
    "payload_digest",
]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Cell:
    """One point of a sweep: ordered (axis, value) pairs plus identity.

    ``index`` is the cell's position in grid order (the deterministic
    merge key); ``cell_id`` is a stable human-readable id derived only
    from the axis values, so the same logical cell keeps the same id
    across code revisions that do not change the grid.
    """

    index: int
    cell_id: str
    params: Tuple[Tuple[str, Any], ...]

    def __getitem__(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"cell {self.cell_id!r} has no axis {name!r}")

    def get(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        """The cell's parameters as a plain dict (axis order preserved)."""
        return dict(self.params)

    def __repr__(self) -> str:
        return f"Cell({self.index}, {self.cell_id!r})"


@dataclass(frozen=True)
class CellResult:
    """One executed cell: its identity plus the cell function's payload.

    The payload is whatever the cell function returned — by contract a
    plain picklable value.  Reduction semantics are deterministic by
    construction: runners hand experiments the ``CellResult`` list in
    cell order regardless of execution order, so any fold over it is
    worker-count invariant.
    """

    index: int
    cell_id: str
    params: Tuple[Tuple[str, Any], ...]
    payload: Any

    @classmethod
    def of(cls, cell: Cell, payload: Any) -> "CellResult":
        return cls(cell.index, cell.cell_id, cell.params, payload)

    def __getitem__(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"cell {self.cell_id!r} has no axis {name!r}")


class SweepGrid:
    """Declarative mode × seed × parameter grid.

    >>> grid = SweepGrid("chaos").axis("mode", ("vanilla", "hotmem")) \\
    ...                          .axis("rate", (0.0, 0.2))
    >>> [c.cell_id for c in grid.cells()]
    ['mode=vanilla/rate=0.0', 'mode=vanilla/rate=0.2', \
'mode=hotmem/rate=0.0', 'mode=hotmem/rate=0.2']

    Axes cross in declaration order (later axes vary fastest), matching
    the nesting order of the hand-rolled loops the grids replaced — so
    ported experiments keep their historical cell order, trace context
    order and rendered row order.
    """

    def __init__(self, name: str = "sweep") -> None:
        self.name = name
        self._axes: List[Tuple[str, Tuple[Any, ...]]] = []
        self._rows: Optional[Tuple[Tuple[Tuple[str, Any], ...], ...]] = None
        self._cells: Optional[Tuple[Cell, ...]] = None

    def axis(self, name: str, values: Sequence[Any]) -> "SweepGrid":
        """Add one axis; returns ``self`` for chaining."""
        if self._rows is not None:
            raise ValueError("cannot add axes to an explicit grid")
        if any(existing == name for existing, _ in self._axes):
            raise ValueError(f"duplicate axis {name!r}")
        values = tuple(values)
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        self._axes.append((name, values))
        self._cells = None
        return self

    @classmethod
    def explicit(
        cls,
        axis_names: Sequence[str],
        rows: Sequence[Mapping[str, Any]],
        name: str = "sweep",
    ) -> "SweepGrid":
        """A ragged grid from explicit parameter rows (cell order = row
        order).  Every row must bind exactly ``axis_names``."""
        grid = cls(name)
        built: List[Tuple[Tuple[str, Any], ...]] = []
        names = tuple(axis_names)
        for row in rows:
            if set(row) != set(names):
                raise ValueError(
                    f"row keys {sorted(row)} do not match axes {list(names)}"
                )
            built.append(tuple((axis, row[axis]) for axis in names))
        grid._rows = tuple(built)
        return grid

    def axes(self) -> Tuple[str, ...]:
        """The axis names, in declaration order."""
        if self._rows is not None:
            return tuple(self._rows[0][i][0] for i in range(len(self._rows[0]))) if self._rows else ()
        return tuple(name for name, _ in self._axes)

    def _param_rows(self) -> Tuple[Tuple[Tuple[str, Any], ...], ...]:
        if self._rows is not None:
            return self._rows
        rows: List[Tuple[Tuple[str, Any], ...]] = [()]
        for axis_name, values in self._axes:
            rows = [
                row + ((axis_name, value),)
                for row in rows
                for value in values
            ]
        return tuple(rows)

    def cells(self) -> Tuple[Cell, ...]:
        """The grid's cells, frozen, in deterministic grid order."""
        if self._cells is None:
            built: List[Cell] = []
            for index, params in enumerate(self._param_rows()):
                cell_id = (
                    "/".join(
                        f"{axis}={_format_value(value)}"
                        for axis, value in params
                    )
                    or f"{self.name}"
                )
                built.append(Cell(index, cell_id, params))
            self._cells = tuple(built)
        return self._cells

    def __len__(self) -> int:
        return len(self.cells())

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells())

    def __repr__(self) -> str:
        return f"<SweepGrid {self.name} cells={len(self)}>"


# ----------------------------------------------------------------------
# Canonical payload encoding (worker-count invariance proofs)
# ----------------------------------------------------------------------
def canonical(value: Any) -> Any:
    """A JSON-encodable canonical form of an experiment payload.

    Dataclasses become dicts, enums collapse to their ``.value``, mode
    backends to their name (through ``str()``), dict keys are
    stringified, and floats keep full ``repr`` precision — so two
    payloads are equal iff their canonical forms are, regardless of which
    process produced them (unpickled backend copies and registry
    singletons canonicalise identically).
    """
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return repr(value)
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, Mapping):
        return {
            str(canonical(key)): canonical(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(canonical(item)) for item in value)
    inner = getattr(value, "value", None)
    if isinstance(inner, (str, int, float)):
        return canonical(inner)
    return str(value)


def payload_digest(value: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``value``."""
    encoded = json.dumps(
        canonical(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode()).hexdigest()
