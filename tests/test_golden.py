"""Fixed commands and series reports, compared byte for byte with tests/golden.

Each file holds the exact stdout of one `subcount` command, run in process, or
the json.dumps of one series report.  A change that alters any of them fails
here; a deliberate change of output rewrites the file by hand in the same
commit, so the diff shows what moved.
"""
import json
from pathlib import Path

import pytest

from subcount import genfun
from subcount.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "count.txt": ["count", "--type", "3,1,2", "--b", "3"],
    "count-prime3.txt": ["count", "--type", "3,1,2", "--b", "3", "--prime", "3"],
    "count.json": ["count", "--type", "3,1,2", "--b", "3", "--json"],
    "count-recurrence.txt": [
        "count", "--type", "3,1,2", "--b", "3", "--method", "recurrence"],
    "count-oracle-prime2.txt": [
        "count", "--type", "3,1,2", "--b", "3", "--method", "oracle", "--prime", "2"],
    # the cover census refuses on price, so the matrix census answers
    "count-oracle-matrix.json": [
        "count", "--type", "3,3,3,3", "--b", "6", "--method", "oracle", "--prime", "2",
        "--json"],
    # one query for each branch of closedforms.closed_form
    "count-rank2.txt": ["count", "--type", "2,3", "--b", "4"],
    "count-mmmm.txt": ["count", "--type", "2,2,2,2", "--b", "3"],
    "count-rank4-interval.txt": ["count", "--type", "1,2,3,4", "--b", "2"],
    # b = 8 lies in no interval; its mirror m - b = 2 lies in case 2's
    "count-rank4-mirror.txt": ["count", "--type", "1,2,3,4", "--b", "8"],
    # a reflected rank-3 case, 9 being the b -> m - b image of case 2
    "count-rank3-reflected.txt": ["count", "--type", "1,2,3", "--b", "5"],
    "count-rank4-gap.txt": ["count", "--type", "1,1,4,4", "--b", "5"],
    "count-rank5-anyrank.txt": ["count", "--type", "2,2,3,3,4", "--b", "13"],
    # the count bound C(weight + 3, 3) needs 65 bits, so the slots are two words
    "count-wide-slots.json": [
        "count", "--type", "1000000,2000000,3000000", "--b", "5", "--json"],
    "table.txt": ["table", "--type", "2,2,1"],
    "table-prime3.txt": ["table", "--type", "2,2,1", "--prime", "3"],
    "table-prime3.json": ["table", "--type", "2,2,1", "--prime", "3", "--json"],
    # last part 6 against mp = 12 reaches every branch of recurrence._extend_row
    "table-rank4.txt": ["table", "--type", "3,4,5,6", "--prime", "2"],
    "table-rank4.json": ["table", "--type", "3,4,5,6", "--prime", "2", "--json"],
    "verify.txt": ["verify"],
    "verify.json": ["verify", "--json"],
    # the benchmark's verify workload at seed 1
    "verify-oracle128-primes32.json": [
        "verify", "--json", "--oracle-limit", "128", "--primes", "3,2"],
    "toth.txt": ["toth"],
    "toth.json": ["toth", "--json"],
}
SERIES_CHECKS = [(check, bounds)
                 for check in ("verify_F2", "verify_g_product", "verify_sub_series")
                 for bounds in ((4, 4, 4), (8, 8, 8), (12, 12, 12))]


def series_file(check, bounds):
    return "%s-%s.json" % (check, "x".join(map(str, bounds)))


def test_every_golden_file_is_checked():
    names = set(COMMANDS) | {series_file(*case) for case in SERIES_CHECKS}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(names)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_stdout(capsys, name):
    code = main(COMMANDS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("check, bounds", SERIES_CHECKS,
                         ids=[series_file(*case) for case in SERIES_CHECKS])
def test_series_report(check, bounds):
    report = json.dumps(getattr(genfun, check)(bounds))
    assert report.encode("utf-8") == (GOLDEN / series_file(check, bounds)).read_bytes()
