"""Write a torelli preset's generator values as a value table.

The presets compute their values from a closed-form list of bounding-pair
symbols (engine._bp_symbols), so the package reads no table of its own.
torelli_table(g, variant) gives the same values as the JSON object that
`witness --psi-table` and `preset(..., psi_table=)` take, for a caller that
wants them as input data; table_text formats one as a file.

The three tables under src/distortion/data/ are fixtures of the benchmark
(perfbench/workloads.py reads them); every value in them equals the preset's
value of its symbol, which tests/test_engine.py checks.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from distortion.engine import preset, psi_table_to_json


def torelli_table(g, variant):
    d = preset("torelli", g, variant=variant)
    return psi_table_to_json(d.rank, d.psi, d.provenance)


def table_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"
