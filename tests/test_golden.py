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
from liecontact.report import CHECKS
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


# the chains records at (2,2) and (3,3), and two exports with random frames
FRAME_CASES = [c for c in CASES if c[0] in (
    "report-2-2-seed0.json", "report-3-3-seed0.json", "chain-2-2-seed1.csv",
    "chain-3-3.csv")]


@pytest.mark.parametrize("case", FRAME_CASES, ids=[c[0] for c in FRAME_CASES])
def test_no_frame_is_converted(case, tmp_path, monkeypatch):
    # group samples, frames and spans stay IntMats from the sampler to the
    # claim: with IntMat.of and IntMat.to_mat made to raise on any square
    # matrix of the frames' size n+4, the chains suite's records and the
    # chain export rebuild byte for byte (a raise would turn a record into
    # a failing one, or end the export)
    name, args, flag = case
    p, q = (int(args[args.index(flag) + 1]) for flag in ("--p", "--q"))
    size = p + q + 4
    of, to_mat = IntMat.of.__func__, IntMat.to_mat

    def refuse(m):
        if m.rows == m.cols == size:
            raise AssertionError("a %dx%d frame converted" % (size, size))

    monkeypatch.setattr(IntMat, "of",
                        classmethod(lambda cls, m: refuse(m) or of(cls, m)))
    monkeypatch.setattr(IntMat, "to_mat",
                        lambda self: refuse(self) or to_mat(self))
    if flag == "--export-chain":
        test_output_matches_its_golden_file(case, tmp_path)
        return
    # the chains suite alone, which runs in this process
    while "--suite" in args:
        at = args.index("--suite")
        args = args[:at] + args[at + 2:]
    path = tmp_path / name
    assert main(args + ["--suite", "chains", flag, str(path)]) == 0
    want = json.loads((GOLDEN / name).read_text())
    names = {c.name for c in CHECKS if c.suite == "chains"}
    want["suites"] = ["chains"]
    want["records"] = [r for r in want["records"] if r["name"] in names]
    assert len(want["records"]) == len(names)
    assert path.read_text() == json.dumps(want, indent=2) + "\n"
