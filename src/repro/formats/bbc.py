"""BBC (Bitmap-Bitmap-CSR) — the paper's unified sparse format (§IV-D).

Layout (full-size, i.e. the 16x16-block version the hardware consumes;
Fig. 13 of the paper shows an 8x8 downsized variant):

- An outer CSR indexes nonzero **16x16 blocks**: ``row_ptr`` over block
  rows and ``col_idx`` per stored block.
- Each stored block carries a 16-bit **level-1 bitmap** marking which
  of its sixteen **4x4 tiles** hold nonzeros (tile ``t = ti*4 + tj``,
  row-major).
- Each nonzero tile carries a 16-bit **level-2 bitmap** marking element
  positions within the tile (element ``e = ei*4 + ej``, row-major).
- ``val_ptr_lv1`` gives each block's base offset into the value array;
  ``val_ptr_lv2`` gives each tile's offset within its block (<= 240, so
  one byte suffices — the paper's "no more than 0.3%" overhead).
- Values are stored block-major, then tile-major (row-major tile
  order), then row-major within each tile.

The two bitmaps are exactly what the TMS (level 1) and DPG (level 2)
consume without any hardware decoding.

They are also the simulator's one block-pattern form (see
:meth:`BBCMatrix.block_patterns` and :func:`pack_patterns`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import FormatError
from repro.formats.bitarray import popcount_array
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix

#: Side of a BBC block (the T1 task dimension).
BLOCK = 16
#: Side of a tile within a block (the T3 task dimension).
TILE = 4
#: Tiles per block side.
TILES_PER_SIDE = BLOCK // TILE
#: Tiles per block.
TILES_PER_BLOCK = TILES_PER_SIDE * TILES_PER_SIDE

#: Byte widths used for exact storage accounting (Fig. 15).
_PTR_BYTES = 4       # row_ptr / col_idx / val_ptr_lv1 entries
_BITMAP_BYTES = 2    # 16-bit level-1 / level-2 bitmaps
_LV2_PTR_BYTES = 1   # per-tile value offset (<= 240)


def _bit_rows(bitmaps: np.ndarray) -> np.ndarray:
    """``[n]`` 16-bit bitmaps as an ``[n, 16]`` bool array (column ``e`` is bit ``e``)."""
    octets = bitmaps.astype("<u2").view(np.uint8).reshape(-1, 2)
    return np.unpackbits(octets, axis=1, bitorder="little").view(bool)


def pack_patterns(grids: np.ndarray) -> np.ndarray:
    """``[..., 16, n]`` bool grids as ``[..., n]`` uint16 packed patterns.

    A 16x16 grid (an A block or 16-wide B panel) packs to sixteen
    level-2 tile bitmaps, slot ``ti*4 + tj`` and bit ``ei*4 + ej``; a
    16x1 vector segment to one uint16 with bit ``r`` for row ``r``.
    """
    grids = np.asarray(grids, dtype=bool)
    lead, n = grids.shape[:-2], grids.shape[-1]
    if grids.shape[-2] != BLOCK or n not in (1, BLOCK):
        raise FormatError(f"patterns are 16x16 or 16x1 grids, got {grids.shape[-2:]}")
    if n == BLOCK:
        grids = grids.reshape(*lead, TILES_PER_SIDE, TILE, TILES_PER_SIDE, TILE).swapaxes(-3, -2)
    octets = np.packbits(grids.reshape(*lead, n, BLOCK), axis=-1, bitorder="little")
    return octets.view("<u2").reshape(*lead, n)


def unpack_patterns(patterns: np.ndarray) -> np.ndarray:
    """The inverse of :func:`pack_patterns`: ``[..., n]`` uint16 to ``[..., 16, n]`` bool."""
    patterns = np.asarray(patterns, dtype="<u2")
    lead, n = patterns.shape[:-1], patterns.shape[-1]
    octets = np.ascontiguousarray(patterns).view(np.uint8).reshape(*lead, n, 2)
    bits = np.unpackbits(octets, axis=-1, bitorder="little").view(bool)
    if n == 1:
        return bits.reshape(*lead, BLOCK, 1)
    tiles = bits.reshape(*lead, TILES_PER_SIDE, TILES_PER_SIDE, TILE, TILE)
    return np.ascontiguousarray(tiles.swapaxes(-3, -2)).reshape(*lead, BLOCK, BLOCK)


def distinct_patterns(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray, List[bytes]]:
    """Distinct rows of ``[N, w]`` packed patterns, in byte order, as
    ``(patterns [U, w], id per input row, each pattern's key bytes)``."""
    packed = np.ascontiguousarray(packed, dtype="<u2")
    rows = packed.view(np.dtype((np.void, 2 * packed.shape[1]))).reshape(-1)
    unique, ids = np.unique(rows, return_inverse=True)
    patterns = unique.view("<u2").reshape(-1, packed.shape[1])
    return patterns, ids.reshape(-1).astype(np.int64), unique.tolist()


#: Set bits of every 4-bit value.
_NIBBLE_POP = np.array([bin(v).count("1") for v in range(16)], dtype=np.int64)
_LANES = np.arange(TILE, dtype=np.int64)


def tile_row_counts(tiles: np.ndarray) -> np.ndarray:
    """``[..., 4]`` set bits of rows ``ei`` of 4x4 tile bitmaps (nibble ``ei``)."""
    return _NIBBLE_POP[(tiles[..., None] >> (TILE * _LANES)) & 0xF]


def tile_col_counts(tiles: np.ndarray) -> np.ndarray:
    """``[..., 4]`` set bits of columns ``ej`` of 4x4 tile bitmaps: bits
    ``ej + 4 ei`` gathered into one nibble by three shifts, popcounted."""
    spread = (tiles[..., None] >> _LANES) & 0x1111
    return _NIBBLE_POP[(spread | spread >> 3 | spread >> 6 | spread >> 9) & 0xF]


class BBCMatrix:
    """A sparse matrix stored in the BBC format."""

    def __init__(
        self,
        shape: Tuple[int, int],
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        bitmap_lv1: np.ndarray,
        tile_ptr: np.ndarray,
        bitmap_lv2: np.ndarray,
        val_ptr_lv1: np.ndarray,
        val_ptr_lv2: np.ndarray,
        values: np.ndarray,
        *,
        _skip_checks: bool = False,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(col_idx, dtype=np.int64)
        self.bitmap_lv1 = np.asarray(bitmap_lv1, dtype=np.uint16)
        self.tile_ptr = np.asarray(tile_ptr, dtype=np.int64)
        self.bitmap_lv2 = np.asarray(bitmap_lv2, dtype=np.uint16)
        self.val_ptr_lv1 = np.asarray(val_ptr_lv1, dtype=np.int64)
        self.val_ptr_lv2 = np.asarray(val_ptr_lv2, dtype=np.uint8)
        self.values = np.asarray(values, dtype=np.float64)
        if not _skip_checks:
            self._validate()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "BBCMatrix":
        """Encode a COO matrix into BBC (the one-time software encoding)."""
        nrows, ncols = coo.shape
        nbrows = max(1, -(-nrows // BLOCK))
        nbcols = max(1, -(-ncols // BLOCK))

        if coo.nnz == 0:
            return cls(
                coo.shape,
                np.zeros(nbrows + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint16),
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.uint16),
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.float64),
                _skip_checks=True,
            )

        # One sort on a combined key: the row-major block number, then
        # the 4-bit row-major tile and element positions (BLOCK = 16 and
        # TILE = 4, so each field is a shift and a mask).  Stable, so
        # duplicates of a non-canonical COO keep their input order.
        r, c = coo.rows, coo.cols
        block = (r >> 4) * nbcols + (c >> 4)
        key = (block << 8) | ((r & 12) << 4) | ((c & 12) << 2) | ((r & 3) << 2) | (c & 3)
        order = np.argsort(key, kind="stable")
        key = key[order]
        values = coo.vals[order]

        # Level-2 bitmaps: one per run of equal (block, tile).
        tile_key = key >> 4
        tile_first = np.flatnonzero(np.concatenate(([True], tile_key[1:] != tile_key[:-1])))
        elem_bit = np.uint16(1) << (key & 0xF).astype(np.uint16)
        bitmap_lv2 = np.bitwise_or.reduceat(elem_bit, tile_first)
        ntiles = tile_first.size

        # Level-1 bitmaps: one per run of equal block among the tiles.
        tile_key = tile_key[tile_first]
        block_key = tile_key >> 4
        block_first = np.flatnonzero(np.concatenate(([True], block_key[1:] != block_key[:-1])))
        tile_bit = np.uint16(1) << (tile_key & 0xF).astype(np.uint16)
        bitmap_lv1 = np.bitwise_or.reduceat(tile_bit, block_first)
        nblocks = block_first.size

        block_key = block_key[block_first]
        blk_row, blk_col = block_key // nbcols, block_key % nbcols
        row_ptr = np.zeros(nbrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(blk_row, minlength=nbrows), out=row_ptr[1:])

        tile_ptr = np.append(block_first, ntiles)
        val_ptr_lv1 = np.append(tile_first[block_first], key.size)
        tile_block = np.repeat(np.arange(nblocks), np.diff(tile_ptr))
        val_ptr_lv2 = (tile_first - val_ptr_lv1[tile_block]).astype(np.uint8)

        return cls(
            coo.shape,
            row_ptr,
            blk_col,
            bitmap_lv1,
            tile_ptr,
            bitmap_lv2,
            val_ptr_lv1,
            val_ptr_lv2,
            values,
            _skip_checks=True,
        )

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "BBCMatrix":
        """Encode a CSR matrix into BBC."""
        return cls.from_coo(csr.to_coo())

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BBCMatrix":
        """Encode a dense array into BBC, dropping zeros."""
        return cls.from_coo(COOMatrix.from_dense(dense))

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        issues = self.validate()
        if issues:
            raise FormatError(issues[0])

    def validate(self) -> list:
        """Full structural integrity check; returns a list of issue strings.

        An empty list means the encoding is self-consistent.  The checks
        exploit BBC's built-in redundancy — the level-1/level-2 bitmap
        popcounts must agree with the tile and value array lengths, and
        the three pointer arrays must be monotone and mutually
        consistent — which is what lets a fault-injection campaign
        classify metadata corruption as *detected* rather than silent.
        Used by :mod:`repro.resilience.faults`; guaranteed to report
        nothing on any matrix produced by the encoders.
        """
        issues = []
        nbrows = max(1, -(-self.shape[0] // BLOCK))

        # Outer CSR skeleton.
        if self.row_ptr.size != nbrows + 1:
            issues.append("row_ptr length must be #block-rows + 1")
        if self.row_ptr.size and self.row_ptr[0] != 0:
            issues.append("row_ptr must start at 0")
        if np.any(np.diff(self.row_ptr) < 0):
            issues.append("row_ptr must be monotonically non-decreasing")
        if self.row_ptr.size and self.row_ptr[-1] != self.col_idx.size:
            issues.append("row_ptr must end at the block count")
        if self.col_idx.size:
            nbcols = max(1, -(-self.shape[1] // BLOCK))
            if self.col_idx.min() < 0 or self.col_idx.max() >= nbcols:
                issues.append("col_idx entries must lie inside the block grid")
        if (self.row_ptr.size == nbrows + 1 and not np.any(np.diff(self.row_ptr) < 0)
                and self.row_ptr[-1] == self.col_idx.size):
            for brow in range(nbrows):
                lo, hi = int(self.row_ptr[brow]), int(self.row_ptr[brow + 1])
                if hi - lo > 1 and np.any(np.diff(self.col_idx[lo:hi]) <= 0):
                    issues.append(
                        f"col_idx must be strictly increasing within block row {brow}"
                    )
                    break

        # Level-1 bitmaps vs tile storage.
        if self.bitmap_lv1.size != self.col_idx.size:
            issues.append("one level-1 bitmap per stored block required")
        if self.bitmap_lv1.size and np.any(self.bitmap_lv1 == 0):
            issues.append("a stored block must mark at least one nonzero tile")
        if self.tile_ptr.size != self.col_idx.size + 1:
            issues.append("tile_ptr length must be #blocks + 1")
        if self.tile_ptr.size and self.tile_ptr[0] != 0:
            issues.append("tile_ptr must start at 0")
        if np.any(np.diff(self.tile_ptr) < 0):
            issues.append("tile_ptr must be monotonically non-decreasing")
        lv1_pops = popcount_array(self.bitmap_lv1)
        expected_tiles = int(lv1_pops.sum())
        if self.bitmap_lv2.size != expected_tiles:
            issues.append("one level-2 bitmap per nonzero tile required")
        if (self.tile_ptr.size == self.bitmap_lv1.size + 1
                and not np.array_equal(np.diff(self.tile_ptr), lv1_pops)):
            issues.append("tile_ptr strides must equal level-1 bitmap popcounts")

        # Level-2 bitmaps vs value storage.
        if self.bitmap_lv2.size and np.any(self.bitmap_lv2 == 0):
            issues.append("a stored tile must mark at least one nonzero element")
        if self.val_ptr_lv1.size != self.col_idx.size + 1:
            issues.append("val_ptr_lv1 length must be #blocks + 1")
        if self.val_ptr_lv1.size and self.val_ptr_lv1[0] != 0:
            issues.append("val_ptr_lv1 must start at 0")
        if np.any(np.diff(self.val_ptr_lv1) < 0):
            issues.append("val_ptr_lv1 must be monotonically non-decreasing")
        if self.val_ptr_lv1.size and self.val_ptr_lv1[-1] != self.values.size:
            issues.append("val_ptr_lv1 must end at nnz")
        lv2_pops = popcount_array(self.bitmap_lv2)
        expected_nnz = int(lv2_pops.sum())
        if self.values.size != expected_nnz:
            issues.append("value count must match level-2 bitmap popcounts")

        # Per-tile value offsets: each tile's offset within its block is
        # the cumulative popcount of the block's earlier tiles.
        if (self.val_ptr_lv2.size == self.bitmap_lv2.size
                and self.tile_ptr.size == self.bitmap_lv1.size + 1
                and not np.any(np.diff(self.tile_ptr) < 0)
                and self.tile_ptr.size
                and self.tile_ptr[0] == 0
                and self.tile_ptr[-1] == self.bitmap_lv2.size):
            tile_starts = np.concatenate(([0], np.cumsum(lv2_pops)))[:-1]
            tile_block = np.repeat(
                np.arange(self.bitmap_lv1.size, dtype=np.int64),
                np.diff(self.tile_ptr),
            )
            # tile_ptr[tile_block] is each tile's block's first tile, so
            # indexing stays inside tile_starts even with empty blocks.
            block_base = (tile_starts[self.tile_ptr[tile_block]]
                          if tile_block.size else np.empty(0, dtype=np.int64))
            expected_lv2_off = tile_starts - block_base
            if not np.array_equal(expected_lv2_off, self.val_ptr_lv2):
                issues.append("val_ptr_lv2 offsets must equal cumulative tile popcounts")
        elif self.val_ptr_lv2.size != self.bitmap_lv2.size:
            issues.append("one val_ptr_lv2 offset per nonzero tile required")

        # Values themselves: NaN/Inf never survive the encoders.
        if self.values.size and not np.all(np.isfinite(self.values)):
            issues.append("values must be finite")
        return issues

    # -- basic queries ------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored nonzero elements."""
        return int(self.values.size)

    def __len__(self) -> int:
        """Number of stored blocks — an empty matrix is falsy."""
        return int(self.col_idx.size)

    def copy(self) -> "BBCMatrix":
        """Deep copy of the encoding (no cached derived state is shared).

        The copy skips construction-time validation so fault-injection
        campaigns can corrupt it freely and then ask :meth:`validate`
        what the format-level checks would catch.
        """
        return BBCMatrix(
            self.shape,
            self.row_ptr.copy(),
            self.col_idx.copy(),
            self.bitmap_lv1.copy(),
            self.tile_ptr.copy(),
            self.bitmap_lv2.copy(),
            self.val_ptr_lv1.copy(),
            self.val_ptr_lv2.copy(),
            self.values.copy(),
            _skip_checks=True,
        )

    @property
    def nblocks(self) -> int:
        """Number of stored nonzero 16x16 blocks."""
        return int(self.col_idx.size)

    @property
    def ntiles(self) -> int:
        """Number of stored nonzero 4x4 tiles."""
        return int(self.bitmap_lv2.size)

    @property
    def block_rows(self) -> int:
        """Number of block rows (padded)."""
        return self.row_ptr.size - 1

    @property
    def block_cols(self) -> int:
        """Number of block columns (padded)."""
        return max(1, -(-self.shape[1] // BLOCK))

    def nnz_per_block(self) -> np.ndarray:
        """Nonzeros stored in each block (the NnzPB axis of Fig. 15)."""
        return np.diff(self.val_ptr_lv1)

    def block_row(self, brow: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(block_cols, block_indices)`` of block row ``brow``."""
        lo, hi = self.row_ptr[brow], self.row_ptr[brow + 1]
        return self.col_idx[lo:hi], np.arange(lo, hi)

    def find_block(self, brow: int, bcol: int) -> Optional[int]:
        """Index of the stored block at (brow, bcol), or None if empty."""
        lo, hi = self.row_ptr[brow], self.row_ptr[brow + 1]
        pos = lo + np.searchsorted(self.col_idx[lo:hi], bcol)
        if pos < hi and self.col_idx[pos] == bcol:
            return int(pos)
        return None

    def iter_blocks(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(block_row, block_col, block_index)`` for every block."""
        for brow in range(self.block_rows):
            for pos in range(self.row_ptr[brow], self.row_ptr[brow + 1]):
                yield brow, int(self.col_idx[pos]), pos

    # -- per-block materialisation ---------------------------------------

    def tile_ids(self) -> np.ndarray:
        """Tile-grid position (0..15) of every stored tile, block-major.

        Derived from the level-1 bitmaps (stored tiles appear in
        ascending bit order); fully vectorised — ``np.nonzero`` on the
        unpacked bit matrix yields bit positions in exactly that
        block-major, ascending order — and cached after the first call.
        """
        cached = getattr(self, "_tile_ids_cache", None)
        if cached is not None:
            return cached
        ids = np.nonzero(_bit_rows(self.bitmap_lv1))[1].astype(np.uint8)
        self._tile_ids_cache = ids
        return ids

    def structural_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of every stored nonzero, decoded without values.

        Vectorised over stored tiles (no per-block Python loops), in
        block-major / tile-major / row-major-within-tile order — the
        value storage order.  This is what sparse structural analyses
        (e.g. the SpGEMM output-size estimate in
        :mod:`repro.sim.memory`) use instead of densifying.
        """
        if self.nnz == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        tile_id = self.tile_ids().astype(np.int64)
        tile_block = np.repeat(
            np.arange(self.nblocks, dtype=np.int64), np.diff(self.tile_ptr)
        )
        t_sel, e_sel = np.nonzero(_bit_rows(self.bitmap_lv2))
        block_of = tile_block[t_sel]
        brow_of_block = np.repeat(
            np.arange(self.block_rows, dtype=np.int64), np.diff(self.row_ptr)
        )
        ti, tj = tile_id[t_sel] // TILES_PER_SIDE, tile_id[t_sel] % TILES_PER_SIDE
        ei, ej = e_sel // TILE, e_sel % TILE
        rows = brow_of_block[block_of] * BLOCK + ti * TILE + ei
        cols = self.col_idx[block_of] * BLOCK + tj * TILE + ej
        return rows, cols

    def block_patterns(self) -> Tuple[np.ndarray, np.ndarray, List[bytes]]:
        """``(patterns, ids, keys)``: the distinct packed block patterns
        ``[U, 16]``, stored block ``q``'s pattern ``ids[q]`` and each
        pattern's 32 key bytes.  The level-2 bitmaps are placed at
        their level-1 slots (stored tiles fill set bits in ascending
        order) with no decoding; cached, as kernel enumeration reads
        nothing else.
        """
        cached = getattr(self, "_block_patterns_cache", None)
        if cached is not None:
            return cached
        tiles = np.zeros(self.nblocks * TILES_PER_BLOCK, dtype="<u2")
        tiles[np.flatnonzero(_bit_rows(self.bitmap_lv1))] = self.bitmap_lv2
        cached = distinct_patterns(tiles.reshape(-1, TILES_PER_BLOCK))
        self._block_patterns_cache = cached
        return cached

    def block_bitmap(self, block_index: int) -> np.ndarray:
        """16x16 boolean occupancy of a stored block, decoded bit by bit."""
        tiles = self.tile_bitmaps(block_index)
        return np.array([[int(tiles[r // TILE, c // TILE]) >> (r % TILE * TILE + c % TILE) & 1
                          for c in range(BLOCK)] for r in range(BLOCK)], dtype=bool)

    def block_dense(self, block_index: int) -> np.ndarray:
        """16x16 dense values of a stored block."""
        grid = np.zeros((BLOCK, BLOCK), dtype=np.float64)
        lv1 = int(self.bitmap_lv1[block_index])
        t_lo = self.tile_ptr[block_index]
        v_base = self.val_ptr_lv1[block_index]
        slot = 0
        for t in range(TILES_PER_BLOCK):
            if not lv1 & (1 << t):
                continue
            ti, tj = divmod(t, TILES_PER_SIDE)
            lv2 = int(self.bitmap_lv2[t_lo + slot])
            v = v_base + int(self.val_ptr_lv2[t_lo + slot])
            slot += 1
            for e in range(TILE * TILE):
                if lv2 & (1 << e):
                    ei, ej = divmod(e, TILE)
                    grid[ti * TILE + ei, tj * TILE + ej] = self.values[v]
                    v += 1
        return grid

    def tile_bitmaps(self, block_index: int) -> np.ndarray:
        """The block's sixteen level-2 bitmaps as a 4x4 uint16 grid.

        Empty tiles hold bitmap 0.  Row ``ti``, column ``tj`` of the
        result is the tile at that grid position — the exact operand the
        DPG's bottom-level outer product consumes.
        """
        lv1 = int(self.bitmap_lv1[block_index])
        slots = [t for t in range(TILES_PER_BLOCK) if lv1 >> t & 1]
        lo = int(self.tile_ptr[block_index])
        grid = np.zeros(TILES_PER_BLOCK, dtype=np.uint16)
        grid[slots] = self.bitmap_lv2[lo:lo + len(slots)]
        return grid.reshape(TILES_PER_SIDE, TILES_PER_SIDE)

    # -- conversions --------------------------------------------------------

    def to_coo(self) -> COOMatrix:
        """Decode back to COO."""
        rows, cols, vals = [], [], []
        for brow, bcol, idx in self.iter_blocks():
            dense = self.block_dense(idx)
            local_r, local_c = np.nonzero(dense)
            rows.append(brow * BLOCK + local_r)
            cols.append(bcol * BLOCK + local_c)
            vals.append(dense[local_r, local_c])
        if not rows:
            return COOMatrix(self.shape, [], [], [])
        return COOMatrix(self.shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))

    def to_csr(self) -> CSRMatrix:
        """Decode back to CSR."""
        return CSRMatrix.from_coo(self.to_coo())

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (original, unpadded shape)."""
        return self.to_coo().to_dense()

    # -- storage accounting (Fig. 15) -------------------------------------

    def storage_bytes(self) -> int:
        """Exact bytes of the BBC encoding."""
        ptr_entries = self.row_ptr.size + self.col_idx.size + self.val_ptr_lv1.size
        bitmap_entries = self.bitmap_lv1.size + self.bitmap_lv2.size
        return (
            ptr_entries * _PTR_BYTES
            + bitmap_entries * _BITMAP_BYTES
            + self.val_ptr_lv2.size * _LV2_PTR_BYTES
            + self.values.size * 8
        )

    def metadata_bytes(self) -> int:
        """Bytes beyond the raw nonzero values."""
        return self.storage_bytes() - self.nnz * 8

    # -- file I/O (§IV-D: save/reload frequently used matrices) -----------

    def save(self, path: Union[str, Path]) -> None:
        """Persist the encoded matrix so re-encoding cost is paid once."""
        np.savez_compressed(
            str(path),
            shape=np.asarray(self.shape, dtype=np.int64),
            row_ptr=self.row_ptr,
            col_idx=self.col_idx,
            bitmap_lv1=self.bitmap_lv1,
            tile_ptr=self.tile_ptr,
            bitmap_lv2=self.bitmap_lv2,
            val_ptr_lv1=self.val_ptr_lv1,
            val_ptr_lv2=self.val_ptr_lv2,
            values=self.values,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BBCMatrix":
        """Load a matrix previously written by :meth:`save`."""
        path = Path(str(path))
        if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
            path = path.with_suffix(path.suffix + ".npz")
        with np.load(path) as data:
            return cls(
                tuple(int(x) for x in data["shape"]),
                data["row_ptr"],
                data["col_idx"],
                data["bitmap_lv1"],
                data["tile_ptr"],
                data["bitmap_lv2"],
                data["val_ptr_lv1"],
                data["val_ptr_lv2"],
                data["values"],
            )

    def __repr__(self) -> str:
        return f"BBCMatrix(shape={self.shape}, nnz={self.nnz}, nblocks={self.nblocks})"
