"""The array engine's one bit layout: boolean rows packed eight to a byte.

Two kinds of rows are packed, here and nowhere else in the engine:

- **Member-pair rows.**  The layout's member adjacency and each
  execution's delivered heartbeat cube ``hb_mm`` are ``(C, M, W)``
  ``uint8`` arrays, ``W = ceil(M / 8)``, packed along the sender axis:
  cell ``[c, u, v]`` of the ``(C, M, M)`` bool cube (hearer ``u``,
  sender ``v``) is bit ``v % 8`` of byte ``v // 8`` of row ``[c, u]``
  (``bitorder="little"``), and the pad bits past ``M`` are zero.  So a
  row's popcount counts its cells, and a bytewise AND or OR of rows is
  the AND or OR of their cells.  :func:`pack` and :func:`unpack` convert
  between the two forms, :func:`column` reads one sender's cell of every
  row and :func:`popcount` counts each row's cells.  A block of rows
  that is drawn cell by cell goes through :func:`padded_cells` /
  :func:`repack`: one flat bool array of ``8 * W`` cells per row, the
  pads included (always False), which is a flat bit (un)pack -- several
  times faster than cutting each row at ``M`` -- and keeps the cells in
  C order; :func:`cube_index` maps its flat indices to the bool cube's.
- **Knowledge rows.**  The inter-cluster scan mirrors ``(R, T)`` bool
  rows of ``known`` as Python ints, bit ``j`` for column ``j``
  (:func:`bitmasks`, and back with :func:`bool_rows`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Set bits of every byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def width(m: int) -> int:
    """Bytes per packed row of ``m`` cells."""
    return -(-m // 8)


def pack(cells: np.ndarray) -> np.ndarray:
    """Bool ``(..., M)`` rows as packed ``(..., width(M))`` uint8 rows."""
    return np.packbits(cells, axis=-1, bitorder="little")


def unpack(rows: np.ndarray, m: int) -> np.ndarray:
    """Packed ``(..., W)`` rows as bool ``(..., m)`` rows (the inverse
    of :func:`pack`)."""
    return np.unpackbits(rows, axis=-1, count=m, bitorder="little").view(bool)


def padded_cells(rows: np.ndarray) -> np.ndarray:
    """A contiguous block of packed ``(..., W)`` rows as one flat bool
    array, ``8 * W`` cells per row with the pad cells False."""
    return np.unpackbits(rows.reshape(-1), bitorder="little").view(bool)


def repack(cells: np.ndarray, rows: np.ndarray) -> None:
    """Pack padded cells -- ``8 * W`` bools per row of ``rows`` in C
    order, flat or not, the pads False -- into ``rows``."""
    rows[...] = np.packbits(cells, bitorder="little").reshape(rows.shape)


def cube_index(flat: np.ndarray, m: int) -> np.ndarray:
    """Flat indices into :func:`padded_cells` as flat indices into the
    ``(..., m)`` bool rows they came from (pad cells never occur)."""
    padded = 8 * width(m)
    if padded == m:
        return flat
    return flat - (flat // padded) * (padded - m)


def column(rows: np.ndarray, v: int) -> np.ndarray:
    """Cell ``v`` of every packed row: ``(..., W)`` -> bool ``(...)``."""
    v = int(v)
    return ((rows[..., v >> 3] >> (v & 7)) & 1).astype(bool)


def popcount(rows: np.ndarray) -> np.ndarray:
    """Set cells per packed row: ``(..., W)`` -> int64 ``(...)``, one
    byte column at a time (a one-call sum would cast the whole table
    lookup to int64 first)."""
    counts = np.zeros(rows.shape[:-1], dtype=np.int64)
    for w in range(rows.shape[-1]):
        counts += _POPCOUNT.take(rows[..., w])
    return counts


def bitmasks(rows: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """``(R, T)`` bool rows as Python ints (bit ``j`` is column ``j``)
    and as ``(R, W)`` little-endian uint64 words, from one pack."""
    r, t = rows.shape
    words = np.zeros((r, 8 * -(-t // 64)), dtype=np.uint8)
    packed = pack(rows)
    words[:, : packed.shape[1]] = packed
    words = words.view("<u8")
    ints = words[:, -1].tolist()
    for w in range(words.shape[1] - 2, -1, -1):
        ints = [(high << 64) | low for high, low in zip(ints, words[:, w].tolist())]
    return ints, words


def bool_rows(ints: List[int], t: int) -> np.ndarray:
    """The inverse of :func:`bitmasks`: ``(len(ints), t)`` bool rows."""
    w = width(t)
    packed = np.frombuffer(
        b"".join(value.to_bytes(w, "little") for value in ints),
        dtype=np.uint8,
    )
    return unpack(packed.reshape(len(ints), w), t)
