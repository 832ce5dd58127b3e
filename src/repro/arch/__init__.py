"""The Uni-STC micro-architecture model and shared simulator interfaces."""

from repro.arch import (
    benes,
    buffers,
    dataflow_trace,
    dpg,
    isa,
    network,
    pipeline,
    program,
    queues,
    sdpu,
    tasks,
    tms,
    tradeoffs,
)
from repro.arch.base import STCModel
from repro.arch.config import FP16, FP32, FP64, PRECISIONS, Precision, UniSTCConfig
from repro.arch.counters import ACTIONS, Counters
from repro.arch.tasks import T1Task, T3Task, T4Task, UtilHistogram
from repro.arch.unistc import UniSTC

__all__ = [
    "ACTIONS",
    "Counters",
    "FP16",
    "FP32",
    "FP64",
    "PRECISIONS",
    "Precision",
    "STCModel",
    "T1Task",
    "T3Task",
    "T4Task",
    "UniSTC",
    "UniSTCConfig",
    "UtilHistogram",
    "benes",
    "buffers",
    "dataflow_trace",
    "dpg",
    "isa",
    "network",
    "pipeline",
    "program",
    "queues",
    "sdpu",
    "tasks",
    "tms",
    "tradeoffs",
]
