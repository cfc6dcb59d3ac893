"""Entry point: ``python -m benchmarks.e2e`` or ``python benchmarks/e2e/__main__.py``.

The driver runs the second form from a bare checkout without ``PYTHONPATH``,
so the repo root (for ``benchmarks``) and ``src`` (for ``repro``) are put on
``sys.path`` here; spawned shard workers inherit the path from this process.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (_ROOT / "src", _ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from benchmarks.e2e.cli import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main())
