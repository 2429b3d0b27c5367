"""Make the monodeg source tree of this checkout importable.

The benchmark measures the code next to it, never an installed copy: it puts
``<checkout>/src`` first on ``sys.path`` and stops with exit code 2 when that
tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    if not (SRC / "monodeg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no monodeg source tree under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    if Path(module.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"perfbench: imported monodeg from {module.__file__}, not {SRC}\n")
        raise SystemExit(2)
