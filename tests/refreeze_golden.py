"""Re-freeze ``tests/golden_sim.json``: ``PYTHONPATH=src python tests/refreeze_golden.py``.

For a *deliberate* behaviour change only.  Runs the suite with
``helpers.assert_golden`` / ``assert_golden_carves`` swapped for
recorders (test modules bind them at import, after this swap), then
merges what they saw over the committed file, so a partial run
(``... tests/refreeze_golden.py tests/test_migration.py``) keeps the
other cells.  The per-round ``audit_freshness`` tests are untouched by
this and must still pass.
"""

import json
import sys
from pathlib import Path

import helpers
import pytest
from repro.perf.bench import result_digest

seen: dict = {"digests": {}, "carves": {}}
helpers.assert_golden = lambda cell, result: seen["digests"].__setitem__(cell, result_digest(result))
helpers.assert_golden_carves = lambda cell, carves: seen["carves"].__setitem__(cell, carves)

status = pytest.main(["-q", *(sys.argv[1:] or [str(Path(__file__).parent)])])
frozen = {
    kind: dict(sorted({**helpers.GOLDEN.get(kind, {}), **cells}.items()))
    for kind, cells in seen.items()
}
helpers.GOLDEN_PATH.write_text(json.dumps(frozen, indent=1) + "\n")
print(f"froze {len(seen['digests'])} digests, {len(seen['carves'])} carve counts")
raise SystemExit(status)
