"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info`` — package, configuration and model inventory.
- ``kernels`` — run one or more kernels on a matrix across STCs.
- ``formats`` — Fig. 15-style format analysis of a matrix.
- ``amg`` — build/solve an AMG hierarchy and simulate its kernel trace.
- ``area`` — Table IX area breakdown for a DPG count.
- ``trace`` — cycle-by-cycle dataflow walkthrough of one block.
- ``corpus`` — Table VIII-style corpus sweep (fault-tolerant runner).
- ``faults`` — seeded fault-injection campaign.
- ``bench`` — hot-path microbenchmarks (encode/enumeration/sweep/obs).
- ``profile`` — span-level profile of a kernel sweep.
- ``dse`` — design-space exploration: Pareto search over config knobs.

Every subcommand executes inside a :class:`repro.runtime.Session`: STC
and matrix names resolve through :mod:`repro.registry`, observability
and resilience policies come off the shared flags, and a run-manifest
JSON (config fingerprint, seed, version, wall time, cache delta) is
written under ``--run-dir`` (default ``.repro/runs``) for every run.

``kernels``, ``corpus``, ``bench``, ``faults``, ``profile`` and
``dse`` accept
``--trace FILE`` (Chrome ``trace_event`` JSON for chrome://tracing, or
JSONL with a ``.jsonl`` suffix) and ``--metrics FILE`` (metrics
snapshot JSON); observability is off unless one of these is given.

Matrices are named with compact specs (see
:func:`repro.registry.parse_matrix_spec`):

- ``band:N:BW:D``     banded, side N, bandwidth BW, density D
- ``random:N:D``      uniform random
- ``rmat:SCALE``      R-MAT graph with 2^SCALE vertices
- ``rep:NAME``        a Table VII stand-in (consph, cant, gupta3, ...)
- ``poisson:N``       5-point 2D Poisson stencil on an NxN grid
- ``mtx:PATH``        a Matrix Market file

The package is one module per subcommand group — ``inspect_cmds``
(info/formats/area/trace), ``kernels`` (kernels/profile), ``corpus``,
``amg``, ``faults``, ``bench``, ``dse``, ``reporting`` (paper/report)
— with shared argument plumbing in ``common`` and parser assembly plus
the dispatch loop in ``app``.
"""

from repro.cli.app import build_parser, main
from repro.registry import parse_matrix_spec

__all__ = ["build_parser", "main", "parse_matrix_spec"]
