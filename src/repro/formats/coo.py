"""Coordinate-list (COO) sparse matrix container.

COO is the interchange format of this package: every other container
(CSR, BSR, BBC) converts to and from it.  Duplicate entries are summed
on construction, and entries are kept sorted by ``(row, col)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError, ShapeError


class COOMatrix:
    """An immutable COO sparse matrix with deduplicated, sorted entries."""

    def __init__(self, shape: Tuple[int, int], rows, cols, vals, *, _skip_checks: bool = False):
        self.shape = (int(shape[0]), int(shape[1]))
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        if not _skip_checks:
            self._validate()
            self._canonicalise()

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"negative matrix shape {self.shape}")
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise FormatError("rows, cols and vals must have identical length")
        if self.rows.ndim != 1:
            raise FormatError("COO coordinate arrays must be 1-D")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= nrows:
                raise FormatError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= ncols:
                raise FormatError("column index out of bounds")

    def _canonicalise(self) -> None:
        """Sort by (row, col), sum duplicates, drop explicit zeros."""
        if not self.rows.size:
            return
        keys = self.rows * self.shape[1] + self.cols
        if np.all(keys[1:] > keys[:-1]):
            # Already sorted and duplicate-free (e.g. from a dense array
            # or a CSR): only explicit zeros can go.
            keep = self.vals != 0.0
            if not keep.all():
                self.rows, self.cols, self.vals = self.rows[keep], self.cols[keep], self.vals[keep]
            return
        order = np.lexsort((self.cols, self.rows))
        rows, cols, vals = self.rows[order], self.cols[order], self.vals[order]
        # Collapse runs of identical coordinates by summing their values.
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        group = np.cumsum(first) - 1
        summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
        np.add.at(summed, group, vals)
        rows, cols = rows[first], cols[first]
        keep = summed != 0.0
        self.rows, self.cols, self.vals = rows[keep], cols[keep], summed[keep]

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) entries."""
        return int(self.vals.size)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a 2-D dense array, dropping zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense 2-D float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.rows, self.cols] = self.vals
        return out

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix."""
        return COOMatrix((self.shape[1], self.shape[0]), self.cols, self.rows, self.vals)

    def scaled(self, factor: float) -> "COOMatrix":
        """Return a copy with every value multiplied by ``factor``."""
        return COOMatrix(self.shape, self.rows, self.cols, self.vals * factor)

    def density(self) -> float:
        """Fraction of positions holding a nonzero (0.0 for empty shapes)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.allclose(self.vals, other.vals)
        )

    def __hash__(self) -> int:  # pragma: no cover - matrices are not dict keys
        raise TypeError("COOMatrix is not hashable")

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
