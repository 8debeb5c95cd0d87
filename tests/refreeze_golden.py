"""Re-freeze ``tests/golden_sim.json``: ``PYTHONPATH=src python tests/refreeze_golden.py``.

For a *deliberate* behaviour change only.  Runs the suite with the
committed cells swapped for the very dict the ``helpers.assert_golden*``
recorders fill, so every pin compares a value with itself and passes,
then writes what they saw.  A full run (no arguments) writes exactly
the cells seen — a cell whose test was renamed or deleted is dropped,
not kept as an orphan nobody asserts.  A partial run
(``... tests/refreeze_golden.py tests/test_migration.py``) merges what
it saw over the committed file and keeps the other cells.  A failing
run freezes nothing.  The per-round ``audit_freshness`` tests are
untouched by this and must still pass.
"""

import json
import sys
from pathlib import Path

import helpers
import pytest

committed = helpers.GOLDEN if sys.argv[1:] else {}
helpers.GOLDEN = seen = helpers.SEEN

status = pytest.main(["-q", *(sys.argv[1:] or [str(Path(__file__).parent)])])
if status:
    raise SystemExit(f"suite failed (exit {int(status)}): {helpers.GOLDEN_PATH.name} left as it was")
frozen = {
    kind: dict(sorted({**committed.get(kind, {}), **cells}.items()))
    for kind, cells in seen.items()
}
helpers.GOLDEN_PATH.write_text(json.dumps(frozen, indent=1) + "\n")
print("froze " + ", ".join(f"{len(cells)} {kind}" for kind, cells in seen.items()))
