"""Child interpreters that the tests start import capforest from this checkout.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the test process's own
path; the tests that run ``python -m capforest`` in a subprocess inherit
only the environment, so ``src`` goes on ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
