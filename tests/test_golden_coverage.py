"""``tests/golden_sim.json`` holds no cell the suite does not assert.

The file is the only committed contract for deterministic replays, so a
cell whose test was renamed or deleted must not linger as a value
nobody checks.  Every ``helpers.assert_golden*`` call records its cell
in ``helpers.SEEN``; ``conftest.py`` orders this module last, and on a
whole-suite run every committed cell must have been recorded by then.
(``tests/refreeze_golden.py`` with no arguments drops the orphans.)
"""

from pathlib import Path

import pytest

import helpers

TESTS = Path(__file__).resolve().parent


def test_every_golden_cell_is_asserted_by_the_suite(request):
    config = request.config
    targets = {(config.invocation_params.dir / arg).resolve() for arg in config.args}
    if helpers.SUITE_NARROWED or not targets <= {TESTS, TESTS.parent}:
        pytest.skip("needs the whole suite: some asserting tests did not run")
    orphans = {
        kind: sorted(set(cells) - set(helpers.SEEN[kind]))
        for kind, cells in helpers.GOLDEN.items()
    }
    assert not any(orphans.values()), f"golden_sim.json cells no test asserts: {orphans}"
