"""Sparse kernels: golden CSR references, BBC block kernels, task batches."""

from repro.kernels import batched, bbc_kernels, reference
from repro.kernels.batched import TaskBatch, kernel_task_batches
from repro.kernels.vector import SparseVector, dense_segment_mask

#: The four kernels of the paper, in its canonical order.
KERNELS = ("spmv", "spmspv", "spmm", "spgemm")

__all__ = [
    "KERNELS",
    "SparseVector",
    "TaskBatch",
    "batched",
    "bbc_kernels",
    "dense_segment_mask",
    "kernel_task_batches",
    "reference",
]
