"""Parser assembly and the dispatch loop.

Every subcommand module registers two callables on its subparser:

- ``make_spec(args)`` — fold the parsed namespace into the run's
  :class:`~repro.runtime.RunSpec`;
- ``func(args, session)`` — the command body, executed inside the
  spec's :class:`~repro.runtime.Session`.

``main`` is therefore one uniform loop: build the spec, open the
session (obs wiring + manifest), run the body, report artifacts.
Domain errors (:class:`~repro.errors.ReproError`) print as
``error: ...`` and exit 2 — and still leave a manifest behind when
they happen inside the session.  An error opening or closing the
session itself (an unopenable ``--store``) follows the same contract.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import (
    amg,
    bench,
    corpus,
    dse,
    faults,
    infer,
    inspect_cmds,
    kernels,
    reporting,
    store_cmds,
    top,
    worker,
)
from repro.errors import ReproError
from repro.runtime import Session

#: Subcommand modules in ``repro --help`` order; each contributes a
#: ``register(subparsers)`` hook.
_COMMAND_MODULES = (
    inspect_cmds,  # info, formats, area, trace
    kernels,       # kernels, profile
    infer,         # end-to-end model inference (graph runner)
    amg,
    corpus,
    faults,
    bench,
    dse,
    reporting,     # paper, report
    store_cmds,    # store stat|verify|gc, serve
    top,           # live campaign status viewer
    worker,        # exec-supervisor internal
)


def build_parser() -> argparse.ArgumentParser:
    import repro.cli as cli_pkg

    parser = argparse.ArgumentParser(prog="repro", description=cli_pkg.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for module in _COMMAND_MODULES:
        module.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = args.make_spec(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exit_code = 0
    session = Session(spec)
    try:
        with session:
            try:
                exit_code = args.func(args, session)
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                session.fail(str(exc))
                exit_code = 2
            session.exit_code = exit_code
    except ReproError as exc:
        # Entering or leaving the session failed (an unopenable
        # --store, say): same one-line contract as the body's errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifact = session.artifact
    if artifact is not None:
        if artifact.trace_path is not None:
            print(f"wrote trace to {artifact.trace_path}", file=sys.stderr)
        if artifact.metrics_path is not None:
            print(f"wrote metrics to {artifact.metrics_path}", file=sys.stderr)
    return exit_code
