"""Key codecs: intermediate keys as int64 codes.

The columnar shuffle sorts and groups by a single int64 column, so every
key type used by the paper's algorithms needs a bijective encoding:

* partition-interval indices (2-way joins, RCCIS, cascade colocation
  steps) are non-negative ints — the code *is* the key;
* grid cells ``(c_0, ..., c_{d-1})`` of any dimensionality (reducer
  grids, cascade sequence steps, the grid flag and mark cycles'
  ``(component, partition)``) pack into one int64, the compact keying
  of an m-dimensional cell space of Zhang et al.'s multi-way theta-join.

Decoding always produces **native Python** ints and tuples — numpy
scalars repr differently under numpy 2.x (``np.int64(3)`` vs ``3``),
which would silently change the shuffle's repr-order and break
cross-plane routing parity.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Optional

import numpy as np

__all__ = ["KeyCodec", "IntKeyCodec", "CellKeyCodec", "KEY_CODECS"]

#: The bits of a cell code below its dimensionality: the coordinates.
_COORD_BITS = 59


class KeyCodec(abc.ABC):
    """Bijection between one key family and int64 codes."""

    #: the ``columnar_key_kind`` value mappers declare.
    kind: str = "abstract"

    @abc.abstractmethod
    def decode(self, code: int) -> Hashable:
        """The native Python key for one code."""

    def compact_codes(self, codes: np.ndarray) -> Optional[np.ndarray]:
        """A radix-sortable ``int16`` recoding of ``codes``, or ``None``.

        The shuffle's grouping argsort only needs an order-preserving
        injection of the code column, not the codes themselves — and
        numpy's stable sort is a radix sort for dtypes of 16 bits or
        less, several times faster than the comparison sort it falls
        back to on int64.  Key families whose live code range fits
        (partition indices are bounded by the partition count, grid
        cells by the grid side) return the monotone recoding;
        ``None`` means "sort the int64 codes as they are".

        Contract: when a recoding is returned it must be *strictly
        monotone* in the original codes, so the grouped order (and the
        group-boundary scan over the gathered original codes) is
        identical either way.
        """
        return None


class IntKeyCodec(KeyCodec):
    """Non-negative int keys (partition-interval indices): identity."""

    kind = "int"

    def decode(self, code: int) -> Hashable:
        return int(code)

    @staticmethod
    def encode_array(indices: np.ndarray) -> np.ndarray:
        return np.asarray(indices, dtype=np.int64)

    def compact_codes(self, codes: np.ndarray) -> Optional[np.ndarray]:
        # Partition indices: the code is the key, so the range check is
        # all that is needed — the identity downcast is monotone.
        if codes.size == 0:
            return None
        lo = int(codes.min())
        hi = int(codes.max())
        if -(2 ** 15) <= lo and hi < 2 ** 15:
            return codes.astype(np.int16)
        return None


class CellKeyCodec(KeyCodec):
    """Grid cells ``(c_0, ..., c_{d-1})`` with ``1 <= d <= 15``: reducer
    grid cells, and the ``(component, partition)`` keys of the grid flag
    and mark cycles.  A code holds ``d`` in its top four bits and the
    coordinates in the 59 below, ``59 // d`` bits each, the last lowest:
    one ``d``'s codes order their cells row-major, and ``(prefix,
    index)`` is ``encode_cell((prefix, 0)) | index``."""

    kind = "cell"

    @staticmethod
    def encode_cell(cell) -> int:
        width = _COORD_BITS // len(cell) if 0 < len(cell) < 16 else 0
        code = 0
        for coordinate in map(int, cell):
            if not 0 <= coordinate < 1 << width:
                raise ValueError(f"cell {tuple(cell)!r} does not fit the cell codec")
            code = (code << width) | coordinate
        return (len(cell) << _COORD_BITS) | code

    def decode(self, code: int) -> Hashable:
        code = int(code)
        dims = code >> _COORD_BITS
        width = _COORD_BITS // dims
        mask = (1 << width) - 1
        return tuple((code >> (width * k)) & mask for k in reversed(range(dims)))

    def compact_codes(self, codes: np.ndarray) -> Optional[np.ndarray]:
        # The coordinates as the digits of a mixed radix, each digit's
        # radix one past its largest value, number the cells row-major
        # as the codes order them: monotone when one dimensionality is
        # live and the cells the radix spans fit 16 bits.
        dims = codes >> np.int64(_COORD_BITS)
        if codes.size == 0 or dims.min() != dims.max():
            return None
        width = _COORD_BITS // int(dims[0])
        compact = np.zeros(len(codes), dtype=np.int64)
        span = 1
        for k in range(int(dims[0])):
            digit = (codes >> np.int64(width * k)) & np.int64((1 << width) - 1)
            compact += digit * span
            span *= int(digit.max()) + 1
            if span > 2 ** 15:
                return None
        return compact.astype(np.int16)


#: One shared codec instance per ``columnar_key_kind``.
KEY_CODECS: Dict[str, KeyCodec] = {
    IntKeyCodec.kind: IntKeyCodec(),
    CellKeyCodec.kind: CellKeyCodec(),
}
