"""Import of the program under test from ``src/`` of the checkout.

The benchmark runs from the root of a checkout and must measure that
checkout's source, never an installed copy, so ``src`` goes first on the
path and the imported package is required to come from it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _purge() -> None:
    for mod in [m for m in sys.modules if m == "supobf" or m.startswith("supobf.")]:
        del sys.modules[mod]


def load_program(fresh: bool = False):
    """The ``supobf`` package of this checkout; ``fresh`` drops any
    earlier import first, so the import runs again in full."""
    if not (SRC / "supobf" / "__init__.py").is_file():
        raise SystemExit(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        _purge()
    S = importlib.import_module("supobf")
    if Path(S.__file__).resolve().parent != SRC / "supobf":
        raise SystemExit(f"supobf imported from {S.__file__}, not from {SRC}")
    return S
