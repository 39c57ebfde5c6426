"""Make the harness modules importable (they live beside ``run.py``)."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent
for path in (HARNESS, HARNESS.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
