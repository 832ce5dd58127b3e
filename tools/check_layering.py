#!/usr/bin/env python
"""Import-layering, STC-name-hygiene and pattern-form lint.

Three checks, each enforcing the architecture in docs/architecture.md:

1. **Layering** — every package in ``src/repro`` has a layer rank;
   a module may only (unconditionally, at module scope) import repro
   packages of the same or a lower rank.  Lower layers never import
   upper ones: ``formats``/``arch`` must not import ``sim``/``dse``/
   ``cli``, ``sim`` must not import ``runtime``, and so on.  Packages
   sharing a rank (the core modeling cluster) may import each other.
   Function-scope (lazy) imports are exempt: they are the sanctioned
   escape hatch for optional, call-time-only dependencies.

2. **STC-name hygiene** — outside ``repro.registry`` there must be no
   STC-name prefix sniffing (``name.startswith("uni-stc")``) and no
   dict literals dispatching an STC name to a factory/identifier
   (``{"uni-stc": UniSTC}``).  Data tables keyed by name with scalar
   values (paper reference numbers) are allowed; name-to-behaviour
   mapping belongs to the registry alone.

3. **One pattern form** — block patterns are BBC's packed tile
   bitmaps everywhere.  Outside ``repro.formats`` and
   ``repro.arch.tasks`` (whose ``T1Task`` bool grids serve per-block
   readers such as the buffer model) no module imports
   ``unpack_patterns``, at any scope.

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PKG = SRC / "repro"

#: Layer ranks.  Equal ranks may import each other; imports must
#: otherwise point strictly downward (importer rank >= target rank).
LAYERS = {
    "errors": 0,
    "obs": 1,
    "formats": 2,
    # Core modeling cluster: mutually interleaved by design (kernels
    # enumerate arch tasks, arch partitions via kernels, baselines
    # share arch interfaces, workloads build on kernels' formats).
    "workloads": 3,
    "kernels": 3,
    "arch": 3,
    "baselines": 3,
    "registry": 4,
    "energy": 5,
    # The persistent result store is infrastructure below the engine:
    # sim binds it as the block cache's second tier, exec/runtime open
    # it per shard/session.  Its service half serves simulations, so
    # those upward imports are function-scoped (lazy) by design.
    "store": 5,
    "sim": 6,
    "analysis": 7,
    "apps": 7,
    # The model-graph runtime sits beside the apps it lifted: apps
    # build graphs (equal-rank import), dse/cli consume ModelReports
    # from above.
    "graph": 7,
    "perf": 7,
    "resilience": 7,
    # dse and exec sit side by side: the DSE evaluator dispatches batches
    # through the executor at module scope, while exec reaches back into
    # dse's knob->config path only lazily (StcDef.factory).
    "dse": 8,
    "exec": 8,
    "runtime": 9,
    "cli": 10,
    # Top-level package façade and entry point sit above everything.
    "": 10,
}

STC_NAMES = r"(?:uni-stc|nv-dtc(?:-2:4)?|rm-stc|ds-stc|gamma|sigma|trapezoid)"
PREFIX_SNIFF = re.compile(r"\.startswith\(\s*[\"']" + STC_NAMES)
NAME_DISPATCH = re.compile(r"[\"']" + STC_NAMES + r"[\"']\s*:\s*[A-Za-z_]")


def package_of(path: Path) -> str:
    rel = path.relative_to(PKG)
    return rel.parts[0] if len(rel.parts) > 1 else ""


def iter_modules():
    for path in sorted(PKG.rglob("*.py")):
        yield path, package_of(path)


def check_layering() -> list[str]:
    errors = []
    for path, pkg in iter_modules():
        if pkg not in LAYERS:
            errors.append(f"{path}: package {pkg!r} has no layer rank — "
                          "add it to tools/check_layering.py")
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:  # module scope only; lazy imports exempt
            targets = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "repro":
                    # ``from repro import obs`` targets the subpackage,
                    # not the top-level façade.
                    targets = [f"repro.{alias.name}" for alias in node.names]
                elif node.module:
                    targets = [node.module]
            for name in targets:
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                parts = name.split(".")
                target = parts[1] if len(parts) > 1 else ""
                rank = LAYERS.get(target)
                if rank is None:
                    errors.append(f"{path}: import of unranked package "
                                  f"repro.{target}")
                elif rank > LAYERS[pkg]:
                    errors.append(
                        f"{path}: layer violation — {pkg or 'repro'} "
                        f"(rank {LAYERS[pkg]}) imports {name} (rank {rank})")
    return errors


def check_stc_name_hygiene() -> list[str]:
    errors = []
    for path, pkg in iter_modules():
        if pkg == "registry":
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if PREFIX_SNIFF.search(line):
                errors.append(f"{path}:{lineno}: STC-name prefix sniffing "
                              f"outside repro.registry: {line.strip()}")
            if NAME_DISPATCH.search(line):
                errors.append(f"{path}:{lineno}: STC-name dict dispatch "
                              f"outside repro.registry: {line.strip()}")
    return errors


#: Where ``unpack_patterns`` may be imported (package, or package/module).
UNPACK_ALLOWED = ("formats", "arch/tasks.py")


def unpack_imports(path: Path, source: str) -> list[str]:
    """One error per import of ``unpack_patterns`` in ``source``."""
    errors = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if "unpack_patterns" in names:
            errors.append(f"{path}:{node.lineno}: unpack_patterns outside "
                          "repro.formats and repro.arch.tasks: models read "
                          "packed patterns")
    return errors


def check_pattern_form() -> list[str]:
    errors = []
    for path, pkg in iter_modules():
        rel = path.relative_to(PKG).as_posix()
        if pkg in UNPACK_ALLOWED or rel in UNPACK_ALLOWED:
            continue
        errors += unpack_imports(path, path.read_text(encoding="utf-8"))
    return errors


def main() -> int:
    errors = check_layering() + check_stc_name_hygiene() + check_pattern_form()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"\n{len(errors)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
