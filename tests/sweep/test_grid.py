"""Grid model: axis crossing, cell identity, canonical digests."""

import enum
import pickle
from dataclasses import dataclass

import pytest

from repro.modes import registered_modes
from repro.sweep import Cell, CellResult, SweepGrid, canonical, payload_digest


class TestAxes:
    def test_later_axes_vary_fastest(self):
        grid = (
            SweepGrid("g")
            .axis("mode", ("vanilla", "hotmem"))
            .axis("rate", (0.0, 0.2))
        )
        assert [c.cell_id for c in grid.cells()] == [
            "mode=vanilla/rate=0.0",
            "mode=vanilla/rate=0.2",
            "mode=hotmem/rate=0.0",
            "mode=hotmem/rate=0.2",
        ]

    def test_cell_index_matches_grid_position(self):
        grid = SweepGrid("g").axis("seed", (0, 1, 2))
        assert [c.index for c in grid.cells()] == [0, 1, 2]

    def test_duplicate_axis_rejected(self):
        grid = SweepGrid("g").axis("mode", ("a",))
        with pytest.raises(ValueError, match="duplicate axis"):
            grid.axis("mode", ("b",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepGrid("g").axis("mode", ())

    def test_len_and_iter_cover_the_cross_product(self):
        grid = SweepGrid("g").axis("a", (1, 2)).axis("b", (1, 2, 3))
        assert len(grid) == 6
        assert [c.index for c in grid] == list(range(6))

    def test_axis_names_in_declaration_order(self):
        grid = SweepGrid("g").axis("mode", ("a",)).axis("rate", (0.5,))
        assert grid.axes() == ("mode", "rate")


class TestExplicit:
    def test_row_order_is_cell_order(self):
        grid = SweepGrid.explicit(
            ("mode", "spare"),
            [{"mode": "warm", "spare": 2}, {"mode": "cold", "spare": 0}],
            name="policy",
        )
        assert [c.cell_id for c in grid.cells()] == [
            "mode=warm/spare=2",
            "mode=cold/spare=0",
        ]

    def test_row_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match axes"):
            SweepGrid.explicit(("mode",), [{"mode": "a", "extra": 1}])

    def test_axis_after_explicit_rejected(self):
        grid = SweepGrid.explicit(("mode",), [{"mode": "a"}])
        with pytest.raises(ValueError, match="explicit grid"):
            grid.axis("rate", (0.0,))


class TestCellAccess:
    def test_getitem_and_get(self):
        cell = Cell(0, "mode=a", (("mode", "a"), ("rate", 0.2)))
        assert cell["rate"] == 0.2
        assert cell.get("mode") == "a"
        assert cell.get("missing", "fallback") == "fallback"

    def test_missing_axis_raises_keyerror(self):
        cell = Cell(0, "mode=a", (("mode", "a"),))
        with pytest.raises(KeyError):
            cell["rate"]

    def test_as_dict_preserves_axis_order(self):
        cell = Cell(0, "b=2/a=1", (("b", 2), ("a", 1)))
        assert list(cell.as_dict()) == ["b", "a"]

    def test_cell_result_of_copies_identity(self):
        cell = Cell(3, "mode=a", (("mode", "a"),))
        result = CellResult.of(cell, payload=42)
        assert (result.index, result.cell_id) == (3, "mode=a")
        assert result["mode"] == "a"
        assert result.payload == 42


class _Color(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class _Point:
    x: int
    y: float


class TestCanonical:
    def test_floats_keep_repr_precision(self):
        assert canonical(0.1 + 0.2) == repr(0.1 + 0.2)

    def test_dataclasses_become_dicts(self):
        assert canonical(_Point(1, 0.5)) == {"x": 1, "y": "0.5"}

    def test_enums_collapse_to_value(self):
        assert canonical(_Color.RED) == "red"

    @pytest.mark.parametrize("mode", registered_modes(), ids=str)
    def test_modes_collapse_to_their_name(self, mode):
        # Sweep workers return unpickled copies, not the registry singletons.
        copy = pickle.loads(pickle.dumps(mode))
        assert copy is not mode
        assert canonical(mode) == canonical(copy) == mode.name

    def test_sets_sort_deterministically(self):
        assert canonical({"b", "a"}) == ["a", "b"]

    def test_digest_ignores_dict_insertion_order(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_digest_distinguishes_payloads(self):
        assert payload_digest((1, 2)) != payload_digest((2, 1))
