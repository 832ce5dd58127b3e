"""Sparse vector container used by SpMSpV and the BFS application."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.formats.bbc import BLOCK, PatternKeys, distinct_patterns


class SparseVector:
    """A length-``n`` sparse vector with sorted indices."""

    def __init__(self, n: int, indices, values, *, _skip_checks: bool = False):
        self.n = int(n)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if not _skip_checks:
            self._canonicalise()

    def _canonicalise(self) -> None:
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise FormatError("indices and values must be equal-length 1-D arrays")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise FormatError("sparse vector index out of bounds")
            order = np.argsort(self.indices, kind="stable")
            idx, vals = self.indices[order], self.values[order]
            first = np.ones(idx.size, dtype=bool)
            first[1:] = idx[1:] != idx[:-1]
            group = np.cumsum(first) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group, vals)
            idx = idx[first]
            keep = summed != 0.0
            self.indices, self.values = idx[keep], summed[keep]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.values.size)

    def density(self) -> float:
        """nnz / n (0.0 for n == 0)."""
        return self.nnz / self.n if self.n else 0.0

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseVector":
        """Build from a dense 1-D array, dropping zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise ShapeError("from_dense expects a 1-D array")
        idx = np.flatnonzero(dense)
        return cls(dense.size, idx, dense[idx], _skip_checks=True)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array."""
        out = np.zeros(self.n, dtype=np.float64)
        out[self.indices] = self.values
        return out

    def segment_mask(self, segment: int, width: int = BLOCK) -> np.ndarray:
        """Boolean occupancy of entries ``[segment*width, (segment+1)*width)``.

        Positions past ``n`` (padding of the last segment) are False —
        this is the 16x1 B-operand bitmap a vector-kernel T1 task carries.
        """
        lo, hi = segment * width, (segment + 1) * width
        mask = np.zeros(width, dtype=bool)
        in_seg = (self.indices >= lo) & (self.indices < hi)
        mask[self.indices[in_seg] - lo] = True
        return mask

    def segment_values(self, segment: int, width: int = BLOCK) -> np.ndarray:
        """Dense values of one segment (padded with zeros)."""
        lo = segment * width
        out = np.zeros(width, dtype=np.float64)
        in_seg = (self.indices >= lo) & (self.indices < lo + width)
        out[self.indices[in_seg] - lo] = self.values[in_seg]
        return out

    def segment_patterns(self) -> Tuple[np.ndarray, np.ndarray, PatternKeys]:
        """SpMSpV's B operands: ``(pattern of each 16-entry segment, -1
        if it holds no nonzero; the distinct packed patterns [U, 1], bit
        ``r`` for entry ``r``; their key fields)``.  Cached, keyed by the
        ``indices`` array: rebinding it re-derives them, and mutating it
        in place is unsupported, as for ``BBCMatrix``'s caches."""
        cached = getattr(self, "_segment_patterns_cache", None)
        if cached is None or cached[0] is not self.indices:
            seg_of = self.indices // BLOCK
            # The indices are sorted: one OR per run of equal segment ids.
            starts = np.flatnonzero(np.diff(seg_of, prepend=-1))
            masks = np.bitwise_or.reduceat((1 << (self.indices % BLOCK)).astype("<u2"), starts)
            patterns, ids, keys = distinct_patterns(masks[:, None])
            of_segment = np.full(-(-self.n // BLOCK), -1, dtype=np.int64)
            of_segment[seg_of[starts]] = ids
            cached = self._segment_patterns_cache = (self.indices, (of_segment, patterns, keys))
        return cached[1]

    def nonempty_segments(self, width: int = BLOCK) -> np.ndarray:
        """Sorted ids of segments holding at least one nonzero."""
        return np.unique(self.indices // width)

    def __repr__(self) -> str:
        return f"SparseVector(n={self.n}, nnz={self.nnz})"


def dense_segment_mask(n: int, segment: int, width: int = BLOCK) -> np.ndarray:
    """Occupancy mask of a *dense* vector segment (False only in padding)."""
    lo = segment * width
    mask = np.zeros(width, dtype=bool)
    mask[: max(0, min(width, n - lo))] = True
    return mask
