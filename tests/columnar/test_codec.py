"""Key codecs: int64 round-trips (cells of any dimensionality), native
decode, compact recodings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar.codec import KEY_CODECS, CellKeyCodec, IntKeyCodec


class TestIntKeyCodec:
    codec = KEY_CODECS["int"]

    def test_roundtrip_is_identity(self):
        for value in (0, 1, 7, 2**31, 2**40):
            assert self.codec.decode(value) == value

    def test_decode_is_native_int(self):
        decoded = self.codec.decode(np.int64(3))
        assert type(decoded) is int
        assert repr(decoded) == "3"

    def test_encode_array_dtype(self):
        encoded = IntKeyCodec.encode_array([1, 2, 3])
        assert encoded.dtype == np.int64

    def test_compact_small_codes(self):
        codes = np.asarray([0, 5, 17, 32766], dtype=np.int64)
        compact = self.codec.compact_codes(codes)
        assert compact is not None
        assert compact.dtype == np.int16
        # Monotone: sorting compact == sorting the codes.
        assert np.array_equal(np.argsort(compact), np.argsort(codes))

    def test_compact_refuses_wide_range(self):
        assert self.codec.compact_codes(
            np.asarray([0, 2**15], dtype=np.int64)
        ) is None

    def test_compact_empty(self):
        assert self.codec.compact_codes(np.empty(0, dtype=np.int64)) is None


class TestCellKeyCodec:
    codec = KEY_CODECS["cell"]

    @pytest.mark.parametrize("cell", [(0, 0), (1, 2), (7, 0), (2**20, 3)])
    def test_roundtrip(self, cell):
        assert self.codec.decode(CellKeyCodec.encode_cell(cell)) == cell

    def test_decode_is_native_tuple(self):
        code = CellKeyCodec.encode_cell((np.int64(1), np.int64(2)))
        decoded = self.codec.decode(np.int64(code))
        assert decoded == (1, 2)
        assert repr(decoded) == "(1, 2)"

    def test_compact_matches_code_order(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 12, size=200)
        cols = rng.integers(0, 12, size=200)
        codes = np.asarray(
            [CellKeyCodec.encode_cell(c) for c in zip(rows, cols)],
            dtype=np.int64,
        )
        compact = self.codec.compact_codes(codes)
        assert compact is not None
        assert compact.dtype == np.int16
        assert np.array_equal(
            np.argsort(compact, kind="stable"),
            np.argsort(codes, kind="stable"),
        )

    def test_compact_refuses_large_grid(self):
        codes = np.asarray(
            [CellKeyCodec.encode_cell((200, j)) for j in (0, 200)],
            dtype=np.int64,
        )
        assert self.codec.compact_codes(codes) is None

    @pytest.mark.parametrize(
        "cell",
        [(0,), (5,), (1, 2, 3), (4, 0, 4, 1), (4, 3, 2, 1, 0), (7, 0) * 7 + (7,)],
        ids=["1d-0", "1d", "3d", "4d", "5d", "15d"],
    )
    def test_nd_roundtrip(self, cell):
        decoded = self.codec.decode(np.int64(CellKeyCodec.encode_cell(cell)))
        assert decoded == cell
        assert repr(decoded) == repr(cell)

    def test_the_dimensionality_is_part_of_the_code(self):
        cells = [(0,), (0, 0), (0, 0, 0), (1,), (0, 1), (1, 0)]
        assert len({CellKeyCodec.encode_cell(cell) for cell in cells}) == len(cells)

    def test_a_cell_too_wide_is_refused(self):
        with pytest.raises(ValueError):
            CellKeyCodec.encode_cell((2**29, 0))
        with pytest.raises(ValueError):
            CellKeyCodec.encode_cell((-1,))
        with pytest.raises(ValueError):
            CellKeyCodec.encode_cell(tuple(range(16)))

    def test_a_prefix_is_the_high_coordinate(self):
        """The grid flag and mark cycles key ``(component, index)`` as the
        component's code with the index OR-ed into the low bits."""
        for prefix, index in [(0, 0), (3, 7), (2, 2**28)]:
            assert CellKeyCodec.encode_cell((prefix, 0)) | index == (
                CellKeyCodec.encode_cell((prefix, index))
            )

    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 5])
    def test_compact_is_monotone_in_any_dimensionality(self, dims):
        rng = np.random.default_rng(dims)
        # Q5's grid is 5 ** 4 cells; 5 ** 5 still fits 16 bits.
        cells = rng.integers(0, 5, size=(300, dims))
        codes = np.asarray(
            [CellKeyCodec.encode_cell(cell) for cell in cells], dtype=np.int64
        )
        compact = self.codec.compact_codes(codes)
        assert compact is not None and compact.dtype == np.int16
        order = np.argsort(codes, kind="stable")
        assert np.array_equal(np.argsort(compact, kind="stable"), order)
        # Strictly monotone: equal exactly where the codes are equal.
        assert np.array_equal(
            np.diff(compact[order]) > 0, np.diff(codes[order]) > 0
        )

    def test_compact_refuses_mixed_dimensionality(self):
        codes = np.asarray(
            [CellKeyCodec.encode_cell(cell) for cell in [(1,), (1, 2)]],
            dtype=np.int64,
        )
        assert self.codec.compact_codes(codes) is None

    def test_kind_registry(self):
        assert KEY_CODECS["int"].kind == "int"
        assert KEY_CODECS["cell"].kind == "cell"
