"""Baseline tensor-core dataflow models (Table VI configurations)."""

from repro.baselines.ds_stc import DsSTC
from repro.baselines.gamma import Gamma
from repro.baselines.nv_dtc import NvDTC
from repro.baselines.nv_dtc_sparse import NvDTCSparse
from repro.baselines.rm_stc import RmSTC
from repro.baselines.sigma import Sigma
from repro.baselines.trapezoid import Trapezoid

__all__ = ["DsSTC", "Gamma", "NvDTC", "NvDTCSparse", "RmSTC", "Sigma", "Trapezoid"]
