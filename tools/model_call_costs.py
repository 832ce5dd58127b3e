#!/usr/bin/env python
"""Per-model cost of ``simulate_blocks`` calls: a parent tree against this one.

Usage::

    python tools/model_call_costs.py --parent DIR [--workload cold-all]
        [--seed 0] [--runs 7] [--stc NAME ...]

``DIR`` is a checkout of the revision to compare against (``git clone``
it into a scratch directory).  The tool

1. runs one pass of the perfbench workload in this tree, with a spy on
   every registered model's ``simulate_blocks``, and keeps each call's
   miss batch (its pattern tables, indexes and B width);
2. loads the parent's and this tree's ``repro`` packages side by side in
   one process: each tree imports every module of the packages a model
   call reaches (:data:`MODEL_PACKAGES`) afresh, so a model that imports
   a module on its first call (Uni-STC's ``repro.arch.fastpath``) runs
   its own tree's, and keeps them as one module dict, which replaces
   every ``repro`` entry of ``sys.modules`` before that tree runs;
3. asserts both trees return equal rows for every captured call, and
   exits 1 if a tree's run leaves a ``repro`` module in ``sys.modules``
   that its dict does not hold (a module imported mid-run, which the
   dict swap cannot pin to one tree);
4. times, per model, the whole captured pass and its 1-, 8- and
   64-block cuts (every captured batch with at least that many entries,
   cut to its first ones), alternating the trees and which goes first.

Each line gives the median and range over ``--runs`` runs per tree,
as milliseconds for a pass and microseconds per call for a cut, and
the median of the per-run ratios change/parent.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CUTS = (1, 8, 64)
#: Packages holding every module a ``simulate_blocks`` call can reach.
MODEL_PACKAGES = ("repro.arch", "repro.baselines", "repro.formats", "repro.kernels")


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def _drop_repro() -> None:
    for name in [name for name in sys.modules if _is_repro(name)]:
        del sys.modules[name]


def load_tree(src: Path) -> dict:
    """Import ``repro``'s model packages from ``src`` afresh and return
    the tree's module dict."""
    _drop_repro()
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("repro.registry")
        for package in MODEL_PACKAGES:
            path = importlib.import_module(package).__path__
            for info in pkgutil.walk_packages(path, package + "."):
                importlib.import_module(info.name)
    finally:
        sys.path.remove(str(src))
    return {name: module for name, module in sys.modules.items() if _is_repro(name)}


def capture(workload: str, seed: int) -> dict:
    """Each model's miss batches over one pass of ``workload``, in call order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from repro.registry import create_stc, registered_stcs

    calls: dict = {}
    with tempfile.TemporaryDirectory() as scratch:
        run = workloads.WORKLOADS[workload](seed, False, Path(scratch))
        run.setup()
        classes = {type(create_stc(name)) for name in registered_stcs()}
        originals = {cls: cls.__dict__["simulate_blocks"] for cls in classes}

        def spy(original):
            def simulate_blocks(self, batch):
                calls.setdefault(self.name, []).append(
                    (batch.a_patterns, batch.b_patterns, batch.a_index, batch.b_index, batch.n))
                return original(self, batch)
            return simulate_blocks

        for cls, original in originals.items():
            cls.simulate_blocks = spy(original)
        try:
            run.run_pass()
        finally:
            for cls, original in originals.items():
                cls.simulate_blocks = original
    return calls


class Tree:
    """One tree's modules, a model and its captured batches."""

    def __init__(self, modules: dict, name: str, captured: list, label: str) -> None:
        self.modules = modules
        self.label = label
        self.stc = modules["repro.registry"].create_stc(name)
        task_batch = modules["repro.kernels.batched"].TaskBatch
        self.batches = [
            task_batch(a, b, a_index, b_index, np.ones(a_index.size, dtype=np.int64), n,
                       a_ids=np.arange(len(a)), b_ids=np.arange(len(b)), epoch=0)
            for a, b, a_index, b_index, n in captured]

    def cut(self, size: int) -> list:
        """Every batch of at least ``size`` entries, cut to its first ``size``."""
        picks = np.arange(size)
        return [batch.take(picks) for batch in self.batches if len(batch) >= size]

    def enter(self) -> None:
        """Make this tree's modules the only ``repro`` ones imported."""
        _drop_repro()
        sys.modules.update(self.modules)

    def leave(self) -> None:
        """Exit 1 if the run imported a ``repro`` module this tree lacks."""
        stray = sorted(name for name, module in sys.modules.items()
                       if _is_repro(name) and self.modules.get(name) is not module)
        if stray:
            raise SystemExit(f"error: the {self.label} tree's run imported "
                             f"{', '.join(stray)} outside its module dict")

    def rows(self) -> list:
        """Each captured batch's rows."""
        self.enter()
        rows = [self.stc.simulate_blocks(batch) for batch in self.batches]
        self.leave()
        return rows

    def run(self, batches: list) -> float:
        """Seconds to evaluate ``batches`` in order."""
        self.enter()
        simulate = self.stc.simulate_blocks
        t0 = perf_counter()
        for batch in batches:
            simulate(batch)
        elapsed = perf_counter() - t0
        self.leave()
        return elapsed


def alternate(trees, workloads, runs: int):
    """Per-tree run times, alternating the trees and which goes first."""
    times = [[] for _ in trees]
    for tree, batches in zip(trees, workloads):
        tree.run(batches)   # builds each tree's tables before timing
    for rep in range(runs):
        order = range(len(trees)) if rep % 2 == 0 else reversed(range(len(trees)))
        for side in order:
            times[side].append(trees[side].run(workloads[side]))
    return times


def summary(values, scale: float) -> str:
    values = [v * scale for v in values]
    return f"{statistics.median(values):9.1f} ({min(values):.1f}-{max(values):.1f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the revision to compare against")
    parser.add_argument("--workload", default="cold-all",
                        choices=("cold-all", "warm-lru", "store-roundtrip", "infer-stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=7, help="timed runs per tree")
    parser.add_argument("--stc", nargs="*", help="only these models")
    args = parser.parse_args(argv)
    parent_src = args.parent.resolve() / "src"
    if not (parent_src / "repro" / "__init__.py").is_file():
        parser.error(f"no repro package under {parent_src}")

    parent = load_tree(parent_src)
    change = load_tree(ROOT / "src")
    calls = capture(args.workload, args.seed)
    names = [name for name in sorted(calls) if not args.stc or name in args.stc]
    print(f"{args.workload} seed {args.seed}: {args.runs} runs per tree, alternating; "
          "pass in ms, cuts in us per call; ratio = median of change/parent")
    print(f"{'model':12} {'cut':>5} {'calls':>5} {'blocks':>6}  "
          f"{'parent':>22}  {'change':>22}  ratio")
    ones = [0.0, 0.0]
    for name in names:
        trees = (Tree(parent, name, calls[name], "parent"),
                 Tree(change, name, calls[name], "change"))
        for index, (want, got) in enumerate(zip(*(tree.rows() for tree in trees))):
            if not np.array_equal(want, got):
                raise SystemExit(f"error: {name} call {index}: rows differ")
        for label in ("pass",) + CUTS:
            if label == "pass":
                work = [tree.batches for tree in trees]
                scale, calls_n = 1e3, len(work[0])
            else:
                work = [tree.cut(label) for tree in trees]
                calls_n = len(work[0])
                if not calls_n:
                    continue
                scale = 1e6 / calls_n
            times = alternate(trees, work, args.runs)
            ratio = statistics.median(new / old for old, new in zip(*times))
            if label == 1:
                for side in (0, 1):
                    ones[side] += statistics.median(times[side]) * scale
            blocks = sum(len(batch) for batch in work[0])
            print(f"{name:12} {label:>5} {calls_n:5d} {blocks:6d}  "
                  f"{summary(times[0], scale):>22}  {summary(times[1], scale):>22}  "
                  f"{ratio:.2f}x", flush=True)
    if ones[0]:
        print(f"sum of 1-block medians: parent {ones[0]:.0f} us, change {ones[1]:.0f} us "
              f"({ones[1] / ones[0]:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
