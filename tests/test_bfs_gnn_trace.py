"""Tests for BFS, the GNN layer, and the kernel trace machinery."""

import numpy as np
import pytest

from repro.apps.bfs import bfs, reference_bfs
from repro.apps.gnn import GNNLayer, normalised_adjacency, two_hop
from repro.apps.trace import KernelTrace
from repro.arch.unistc import UniSTC
from repro.errors import ShapeError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.graph import GraphRunner
from repro.kernels import reference
from repro.kernels.vector import SparseVector
from repro.workloads.synthetic import power_law


def _graph(n=96, seed=0):
    coo = power_law(n, avg_row_nnz=4.0, seed=seed)
    # Symmetrise so the graph is undirected and mostly connected.
    sym = CSRMatrix.from_coo(coo)
    return reference.add(sym, sym.transpose())


class TestBFS:
    def test_matches_reference(self):
        adj = _graph()
        for source in (0, 5, 50):
            assert np.array_equal(bfs(adj, source).levels, reference_bfs(adj, source))

    def test_source_level_zero(self):
        adj = _graph(seed=1)
        assert bfs(adj, 3).levels[3] == 0

    def test_unreachable_marked(self):
        # Two disconnected self-loop vertices.
        adj = CSRMatrix.from_dense(np.eye(4))
        result = bfs(adj, 0)
        assert result.levels[0] == 0
        assert (result.levels[1:] == -1).all()

    def test_direction_optimisation_switches(self):
        adj = _graph(seed=2)
        result = bfs(adj, 0, pull_threshold=0.02)
        assert result.push_steps >= 1
        mixed = bfs(adj, 0, pull_threshold=0.5)
        assert mixed.push_steps + mixed.pull_steps >= result.push_steps

    def test_trace_records_vector_kernels(self):
        adj = _graph(seed=3)
        trace = KernelTrace()
        bfs(adj, 0, trace=trace)
        counts = trace.kernel_counts()
        assert set(counts) <= {"spmv", "spmspv"}
        assert sum(counts.values()) >= 1

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            bfs(CSRMatrix.empty((3, 4)), 0)

    def test_rejects_bad_source(self):
        with pytest.raises(ShapeError):
            bfs(CSRMatrix.identity(4), 9)

    def test_reached_count(self):
        adj = _graph(seed=4)
        result = bfs(adj, 0)
        assert result.reached == (result.levels >= 0).sum()


class TestGNN:
    def test_normalised_adjacency_symmetric(self):
        adj = _graph(seed=5)
        a_hat = normalised_adjacency(adj)
        dense = a_hat.to_dense()
        assert np.allclose(dense, dense.T, atol=1e-12)

    def test_normalised_spectrum_bounded(self):
        adj = _graph(seed=6)
        eigs = np.linalg.eigvalsh(normalised_adjacency(adj).to_dense())
        assert eigs.max() <= 1.0 + 1e-9

    def test_forward_matches_dense(self):
        adj = _graph(seed=7)
        a_hat = normalised_adjacency(adj)
        rng = np.random.default_rng(0)
        h = rng.standard_normal((adj.shape[0], 8))
        w = rng.standard_normal((8, 4))
        layer = GNNLayer(a_hat, w)
        expected = np.maximum(a_hat.to_dense() @ h @ w, 0.0)
        assert np.allclose(layer.forward(h), expected)

    def test_forward_records_spmm(self):
        adj = _graph(seed=8)
        layer = GNNLayer(normalised_adjacency(adj), np.eye(4))
        trace = KernelTrace()
        layer.forward(np.ones((adj.shape[0], 4)), trace=trace)
        assert trace.kernel_counts() == {"spmm": 1}

    def test_forward_shape_checked(self):
        adj = _graph(seed=9)
        layer = GNNLayer(normalised_adjacency(adj), np.eye(4))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((3, 4)))

    def test_two_hop_matches_dense(self):
        adj = _graph(seed=10)
        trace = KernelTrace()
        result = two_hop(adj, trace=trace)
        assert np.allclose(result.to_dense(), adj.to_dense() @ adj.to_dense())
        assert trace.kernel_counts() == {"spgemm": 1}


class TestKernelTrace:
    def test_replay_scales_with_count(self):
        m = CSRMatrix.from_coo(COOMatrix((32, 32), [0, 17], [1, 16], [1.0, 2.0]))
        once, thrice = KernelTrace(), KernelTrace()
        once.record("spmv", m)
        for _ in range(3):
            thrice.record("spmv", m)
        assert len(thrice.ops) == 3
        uni = UniSTC()
        assert (GraphRunner(thrice.graph("t"), uni).run().e2e_compute_cycles
                == 3 * GraphRunner(once.graph("t"), uni).run().e2e_compute_cycles)

    def test_replay_spmspv(self):
        m = CSRMatrix.identity(32)
        trace = KernelTrace()
        trace.record("spmspv", m, x=SparseVector(32, [0], [1.0]))
        cycles = GraphRunner(trace.graph("t"), UniSTC()).run().kernel_cycles()
        assert "spmspv" in cycles
        assert cycles["spmspv"] >= 1

    def test_replay_aggregates_per_kernel(self):
        m = CSRMatrix.identity(32)
        trace = KernelTrace()
        trace.record("spmv", m)
        trace.record("spgemm", m, b=m)
        report = GraphRunner(trace.graph("t"), UniSTC()).run()
        assert set(report.kernel_cycles()) == {"spmv", "spgemm"}
        assert all(n.report.energy_pj > 0 for n in report.nodes)
        assert report.e2e_compute_energy_pj == sum(
            n.report.energy_pj for n in report.nodes)
