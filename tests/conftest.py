"""Child interpreters that the tests start import capforest from this checkout.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the test process's own
path; the tests that run ``python -m capforest`` in a subprocess inherit
only the environment, so ``src`` goes on ``PYTHONPATH`` as well.

The fixture ``case_files`` writes the named cases of ``tools/cases.py``.
"""

import os
from pathlib import Path

import pytest

import helpers
from capforest import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def case_files(tmp_path):
    """``write(name)`` puts the case ``name`` in ``tmp_path``, running a
    ``gen`` source in-process, and returns its instance and sidecar paths."""
    cases = helpers.load_tool("cases")

    def write(name):
        source, caps = cases.case(name)
        inst, sidecar = tmp_path / f"{name}.txt", tmp_path / f"{name}.caps"
        if isinstance(source, str):
            inst.write_text(source, encoding="utf-8")
        else:
            assert cli.main(["gen", *source, "--out", str(inst)]) == 0
        sidecar.write_text(caps, encoding="utf-8")
        return inst, sidecar

    return write
