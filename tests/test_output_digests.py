"""Every CLI config of ``tools/output_digests.py`` reproduces its recorded digests."""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOLS / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _recorded_config_digests() -> dict[str, str]:
    """``<config>/<file>`` -> digest from the recorded printout; demo lines left out."""
    recorded = {}
    for line in (TOOLS / "output_digests.txt").read_text().splitlines():
        digest, path = line.split("  ", 1)
        if not path.startswith("demos/"):
            recorded[path] = digest
    return recorded


# The printout was recorded with numpy 2.4.6 on x86-64.  Elsewhere the bytes
# are unknown: the correlations in excursion.json take their last bits from
# the BLAS kernels, and another numpy may round differently.
@pytest.mark.skipif(np.__version__ != "2.4.6" or platform.machine() != "x86_64",
                    reason="digests recorded with numpy 2.4.6 on x86-64")
def test_configs_reproduce_the_recorded_digests(tmp_path):
    tool = _load_tool()
    got = {}
    for name, args in tool.CONFIGS + tool.LATER_CONFIGS:
        digests = tool.config_digests(tmp_path, name, args, workers=1)
        assert digests is not None, name
        got.update({f"{name}/{file}": digest for file, digest in digests.items()})
    assert got == _recorded_config_digests()
