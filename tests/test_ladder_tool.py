"""tools/ladder.py on one small cell: its line format and its output digest."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def test_one_cell_prints_its_time_and_the_digest_of_its_records():
    cli = ladder.import_engine()
    seconds, digest = ladder.run_cell(cli, "sq-q", 4, repeat=1)
    line = ladder.cell_line("sq-q", 4, seconds, digest)
    assert re.fullmatch(r"sq-q@4 \d+\.\d{5} s [0-9a-f]{12}", line), line
    # the records of sqrt(1 + t) = 1 + t/2 - t^2/8 + t^3/16 + O(t^4), its
    # four steps and five chain entries; a change to any byte moves the digest
    assert digest == "3065478ef58d"
