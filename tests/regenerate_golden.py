"""The golden outputs: fixed reports and chain CSVs, and how to rebuild them.

    PYTHONPATH=src python tests/regenerate_golden.py

`CASES` lists every file under tests/golden/ with the command-line
arguments that make it. `tests/test_golden.py` makes each one again
through `liecontact.cli.main` and compares the bytes; this script only
writes them, and Tier-1 never runs it. A change that rewrites a golden
file changes what the engine reports, so it is declared with its reason
and the keys that changed.

Needs only the standard library and the package itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

from liecontact.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_SUITES = ("algebra", "quaternion", "extension", "normality", "chains",
              "reconstruction")
# Psi vanishes at n = 1, so only these suites run there
N1_SUITES = ("algebra", "quaternion", "chains")


def _report(p, q, seed, suites):
    args = ["--p", str(p), "--q", str(q), "--seed", str(seed),
            "--trials", "3"]
    for s in suites:
        args += ["--suite", s]
    return ("report-%d-%d-seed%d.json" % (p, q, seed), args, "--out")


def _chain(p, q, seed=0):
    # seed 0, the CLI default, keeps the name without a seed
    name = "chain-%d-%d%s.csv" % (p, q, "-seed%d" % seed if seed else "")
    return (name, ["--p", str(p), "--q", str(q), "--seed", str(seed),
                   "--chain-g", "random", "--steps", "129"], "--export-chain")


# (file name, arguments, the output flag that names the file)
CASES = tuple(
    [_report(p, q, seed, ALL_SUITES)
     for p, q in ((2, 1), (3, 0), (2, 2), (1, 1), (3, 3))
     for seed in (0, 1)]
    + [_report(p, q, seed, N1_SUITES)
       for p, q in ((1, 0), (0, 1)) for seed in (0, 1)]
    + [_chain(p, q) for p, q in ((1, 0), (2, 2), (3, 3))]
    # seed 1 draws z != 0, so the z·J corner of the frame shows
    + [_chain(2, 2, seed=1)])


def argv(case, path) -> list:
    """The full command line that writes `case` to `path`."""
    _, args, flag = case
    return args + [flag, str(path)]


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN / case[0]
        code = cli_main(argv(case, path))
        print("%s exit %d" % (case[0], code))
        if code != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
