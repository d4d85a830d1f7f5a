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
from liecontact.linalg import IntMat, Mat
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


def _refuse_wide_work(monkeypatch):
    """Make every Mat product of two all-Fraction matrices raise unless both
    are 2x2, and IntMat.of and IntMat.to_mat raise on any matrix that is not
    2x2. Exact work of real size runs on IntMat from the sampler to the
    claim; what is left on Mat is the split-quaternion algebra's 2x2 units
    and the views that print a failing witness. A raise turns a record into
    a failing one, or ends an export; forked suite workers inherit the
    patches."""
    product, of, to_mat = Mat.__mul__, IntMat.of.__func__, IntMat.to_mat

    def square2(m):
        return m.rows == m.cols == 2

    def refuse_product(a, b):
        if (not (square2(a) and square2(b))
                and all(type(e) is Fraction
                        for m in (a, b) for r in m.data for e in r)):
            raise AssertionError("a %dx%d times %dx%d product of Fractions "
                                 "on Mat" % (a.rows, a.cols, b.rows, b.cols))
        return product(a, b)

    def refuse(m):
        if not square2(m):
            raise AssertionError("a %dx%d matrix converted" % (m.rows,
                                                               m.cols))

    monkeypatch.setattr(Mat, "__mul__", refuse_product)
    monkeypatch.setattr(IntMat, "of",
                        classmethod(lambda cls, m: refuse(m) or of(cls, m)))
    monkeypatch.setattr(IntMat, "to_mat",
                        lambda self: refuse(self) or to_mat(self))


@pytest.mark.parametrize("case", WIDE_CASES, ids=[c[0] for c in WIDE_CASES])
def test_no_wide_fraction_product_reaches_a_report(case, tmp_path,
                                                   monkeypatch):
    # every suite's report rebuilds byte for byte with no Fraction product
    # on Mat beyond 2x2·2x2 and no conversion beyond 2x2
    _refuse_wide_work(monkeypatch)
    test_output_matches_its_golden_file(case, tmp_path)


# the (2,2) and (3,3) reports at seed 0 and every chain export
FRAME_CASES = [c for c in CASES if c[0] in (
    "report-2-2-seed0.json", "report-3-3-seed0.json")
    or c[0].startswith("chain-")]


@pytest.mark.parametrize("case", FRAME_CASES, ids=[c[0] for c in FRAME_CASES])
def test_no_frame_is_converted(case, tmp_path, monkeypatch):
    # group samples, frames, spans, contact directions and columns stay
    # IntMats from the sampler to the claim: with the conversions and the
    # Fraction products of `_refuse_wide_work` made to raise, the whole
    # report of all six suites and each chain export rebuild byte for byte
    _refuse_wide_work(monkeypatch)
    test_output_matches_its_golden_file(case, tmp_path)

