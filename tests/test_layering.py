"""The import-layering lint passes on the shipped tree and catches regressions."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_layering.py"

sys.path.insert(0, str(TOOL.parent))
from check_layering import LAYERS, NAME_DISPATCH, PREFIX_SNIFF, unpack_imports  # noqa: E402


def test_tree_is_clean():
    proc = subprocess.run([sys.executable, str(TOOL)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "layering OK" in proc.stdout


def test_rank_ordering_matches_architecture():
    assert LAYERS["formats"] < LAYERS["arch"] < LAYERS["sim"]
    assert LAYERS["registry"] < LAYERS["sim"]
    assert LAYERS["sim"] < LAYERS["resilience"] <= LAYERS["perf"]
    assert LAYERS["dse"] < LAYERS["runtime"] < LAYERS["cli"]


def test_prefix_sniff_pattern():
    assert PREFIX_SNIFF.search('if name.startswith("uni-stc"):')
    assert PREFIX_SNIFF.search("stc.startswith('nv-dtc-2:4')")
    assert not PREFIX_SNIFF.search('name.startswith("band:")')


def test_dispatch_pattern_allows_data_tables():
    assert NAME_DISPATCH.search('"uni-stc": UniSTC,')
    assert NAME_DISPATCH.search("'rm-stc': RmSTC}")
    assert not NAME_DISPATCH.search('"uni-stc": 75.0,')
    assert not NAME_DISPATCH.search('"ds-stc": [1, 2],')


def test_unpack_patterns_import_is_caught():
    snippets = [
        "from repro.formats.bbc import pack_patterns, unpack_patterns\n",
        "def grids(p):\n    from repro.formats.bbc import unpack_patterns\n"
        "    return unpack_patterns(p)\n",
        "from repro.formats import bbc\n\ngrid = bbc.unpack_patterns(p)\n",
    ]
    for snippet in snippets:
        errors = unpack_imports(Path("repro/baselines/x.py"), snippet)
        assert errors and "unpack_patterns outside repro.formats" in errors[0]
    assert not unpack_imports(Path("x.py"), "from repro.formats.bbc import pack_patterns\n")
