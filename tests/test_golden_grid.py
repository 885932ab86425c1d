"""records.csv pinned across the config space, beyond the benchmark's five
golden cells: every cell of `tools/golden_grid.py`'s 490-cell grid (five
pipelines, five river sizes, three taxes, two seeds, three household counts,
and forty cells with `authority_window` 3 or `max_fields` 4; 40 years each)
must give the digest that the seed source gave, recorded in
tests/golden_grid.json. A change that means to move a cell rewrites the table
with `tools/golden_grid.py --out` and says which cells move and why.
"""
import importlib.util
import os
from pathlib import Path

import rivercommons

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_grid.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("golden_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_grid_cell_equals_its_golden_digest(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("RIVERCOMMONS_")]:
        monkeypatch.delenv(key)
    grid = load_tool()
    expected = grid.load_table()
    actual = grid.digests(rivercommons, grid.base_config(), tmp_path)
    assert len(actual) == 490 and actual.keys() == expected.keys()
    assert [key for key in actual if actual[key] != expected[key]] == []
