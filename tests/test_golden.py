"""Same results as a test: every golden output made again, byte for byte.

Each file under tests/golden/ is rebuilt through `liecontact.cli.main`,
exactly as a user would, and compared with the committed bytes. On a
mismatch the failure names the file and the first record (report) or row
(CSV) that differs. `tests/regenerate_golden.py` lists the cases and
rewrites the files.
"""

import json
from fractions import Fraction

import pytest

from liecontact.cli import main
from liecontact.linalg import Mat
from regenerate_golden import CASES, GOLDEN, argv


def _first_difference(name, want, got):
    """Where two outputs first differ, in terms of the output's records."""
    if name.endswith(".json"):
        w, g = json.loads(want), json.loads(got)
        for key in sorted(set(w) | set(g)):
            if key != "records" and w.get(key) != g.get(key):
                return "key %r: %r != %r" % (key, w.get(key), g.get(key))
        for i, (a, b) in enumerate(zip(w["records"], g["records"])):
            if a != b:
                return "record %d (%s): expected %s, got %s" % (
                    i, a["name"], json.dumps(a), json.dumps(b))
        if len(w["records"]) != len(g["records"]):
            return "%d records expected, got %d" % (len(w["records"]),
                                                   len(g["records"]))
    want_rows, got_rows = want.splitlines(), got.splitlines()
    for i, (a, b) in enumerate(zip(want_rows, got_rows)):
        if a != b:
            return "line %d: expected %r, got %r" % (i + 1, a, b)
    if len(want_rows) != len(got_rows):
        return "%d lines expected, got %d" % (len(want_rows), len(got_rows))
    return "the bytes differ outside any record (whitespace or line ends)"


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_output_matches_its_golden_file(case, tmp_path):
    name = case[0]
    path = tmp_path / name
    assert main(argv(case, path)) == 0
    want = (GOLDEN / name).read_bytes()
    got = path.read_bytes()
    if got != want:
        pytest.fail("%s differs from its golden file: %s" % (
            name, _first_difference(name, want.decode(), got.decode())))


# the reports of every suite at (2,2) and (3,3)
WIDE_CASES = [c for c in CASES
              if c[0].startswith(("report-2-2-", "report-3-3-"))]


@pytest.mark.parametrize("case", WIDE_CASES, ids=[c[0] for c in WIDE_CASES])
def test_no_wide_fraction_product_reaches_a_report(case, tmp_path,
                                                   monkeypatch):
    # exact products of real size are written on IntMat: with every Mat
    # product of two all-Fraction matrices whose left factor has more than
    # 2 columns made to raise, the report still rebuilds byte for byte (a
    # raise would turn a record into a failing one). Forked suite workers
    # inherit the patch.
    product = Mat.__mul__

    def refuse_wide(a, b):
        if (isinstance(b, Mat) and a.cols > 2
                and all(type(e) is Fraction
                        for m in (a, b) for r in m.data for e in r)):
            raise AssertionError("a %dx%d times %dx%d product of Fractions "
                                 "on Mat" % (a.rows, a.cols, b.rows, b.cols))
        return product(a, b)

    monkeypatch.setattr(Mat, "__mul__", refuse_wide)
    test_output_matches_its_golden_file(case, tmp_path)
