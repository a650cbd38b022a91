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


def test_one_verify_cell_prints_its_time_and_the_digest_of_its_check_lines():
    cli = ladder.import_engine()
    seconds, digest = ladder.run_verify_cell(cli, "as-f2", 8, repeat=1)
    line = ladder.cell_line("verify:as-f2", 8, seconds, digest)
    assert re.fullmatch(r"verify:as-f2@8 \d+\.\d{5} s [0-9a-f]{12}", line), line
    # the six check lines of the bench's as-f2 verify spec at seed 0: five
    # PASS with residual_val=inf and ent's PASS with residual_val=1/2
    assert digest == "27904288b3d4"


def test_a_verify_split_times_the_expand_and_each_check_as_cmd_verify_runs_them():
    cli = ladder.import_engine()
    seconds, results = ladder.run_verify_split(cli, "as-f2", 8, repeat=1)
    assert list(seconds) == ["expand", *cli.ALL_CHECKS]
    line = ladder.split_line("verify:as-f2", 8, seconds)
    assert re.fullmatch(r"verify:as-f2@8 split expand \d+\.\d{5}"
                        + "".join(rf" {name} \d+\.\d{{5}}" for name in cli.ALL_CHECKS), line), line
    # the replay draws what cmd_verify draws: its six check lines, digested
    text = "\n".join(f"check={name} status={'PASS' if ok else 'FAIL'} residual_val={rv}"
                     for name, ok, rv in results)
    assert ladder.hashlib.sha256(text.encode()).hexdigest()[:12] == "27904288b3d4"
