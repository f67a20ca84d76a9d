"""Test runs write no bytecode: a `__pycache__` left in `src/` would make
later runs of the benchmark start faster than a fresh checkout.  This file
sits at the repository root so that it covers `tests/`, `perfbench/` and
the subprocesses the tests start."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
