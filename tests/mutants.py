"""Mutation gate: each mutant listed here must be killed by its tests.

    python tests/mutants.py

A mutant names a file under src/, an exact snippet of its text, the text
that replaces it and the pytest node ids that must catch the change. For
each mutant the script copies src/ to a temporary directory, replaces the
snippet (it must occur exactly once) and runs the named tests against the
copy, with PYTHONPATH pointing at it. The tests kill the mutant when they
fail.

Equivalent mutants change the code without changing any result. They are
applied the same way, and their tests must still pass, so the claim of
equivalence is checked too.

Before any mutant, every named test runs once against an unchanged copy
and must pass. The script exits 1 when a mutant survives, when an
equivalent mutant is killed, or when a snippet no longer matches its file
(the code moved on and the entry is stale). It needs only the standard
library and pytest, and Tier-1 does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple


LINALG = "liecontact/linalg.py"
T_LINALG = "tests/test_linalg.py::"
T_SO = "tests/test_so_contact.py::"
ELIMINATION = (T_LINALG + "test_elimination_matches_the_fraction_loops",)
PRODUCT = (T_LINALG + "test_kernel_product_matches_triple_loop",
           T_LINALG + "test_kernel_commutator_matches_reference")
G0_TESTS = (T_SO + "test_group_elements_reject_singular_b_and_"
            "non_orthogonal_c",)

MUTANTS = (
    # the fraction-free elimination
    Mutant("elimination: drop the division by the previous pivot", LINALG,
           "(piv * x - f * y) // prev for x, y", "(piv * x - f * y) for x, y",
           ELIMINATION),
    Mutant("elimination: no sign flip on a row swap", LINALG,
           "sign = -sign", "sign = sign", ELIMINATION),
    Mutant("elimination: rows with a zero in the pivot column keep their "
           "scale", LINALG,
           "elif k != r and piv != prev:", "elif False:", ELIMINATION),
    Mutant("elimination: drop the row-scale product", LINALG,
           "scale *= lcm", "scale *= 1", ELIMINATION),
    Mutant("elimination: kernel vectors with the wrong sign", LINALG,
           "Fraction(-rows[pr][fc], d)", "Fraction(rows[pr][fc], d)",
           ELIMINATION),
    Mutant("elimination: accept entries that are not Fractions", LINALG,
           "if any(type(e) is not Fraction for e in r):", "if False:",
           (T_LINALG + "test_elimination_refuses_non_fraction_entries",)),
    # the product kernel
    Mutant("product: drop the denominator rescale", LINALG,
           "(j, x * (d // q)) for j, x, q in r", "(j, x) for j, x, q in r",
           PRODUCT),
    Mutant("commutator: add B·A instead of subtracting it", LINALG,
           "_addmul(acc, rb, rows_a, -1)", "_addmul(acc, rb, rows_a, 1)",
           PRODUCT),
    Mutant("product: da for da*db", LINALG,
           "return _from_ints(out, da * db)", "return _from_ints(out, da)",
           PRODUCT),
    Mutant("commutator: da for da*db", LINALG,
           "_commutator_rows(rows_a, rows_b, n), da * db)",
           "_commutator_rows(rows_a, rows_b, n), da)", PRODUCT),
    Mutant("product: drop the division by d", LINALG,
           "Fraction(x, d) if x else _ZERO", "Fraction(x) if x else _ZERO",
           PRODUCT),
    # the group-element checks and the CLI
    Mutant("G0: skip the invertibility check", "liecontact/so_contact.py",
           "if det(b) == 0:", "if False:", G0_TESTS),
    Mutant("G0: skip the orthogonality check", "liecontact/so_contact.py",
           "if (c.T * ipq * c) != ipq:", "if False:",
           G0_TESTS + (T_SO + "test_equivariance_rejects_non_orthogonal_c",)),
    Mutant("cli: a zero denominator in --t-max escapes as a traceback",
           "liecontact/cli.py",
           "except (ValueError, ZeroDivisionError) as exc:",
           "except ValueError as exc:",
           ("tests/test_report.py::"
            "test_cli_export_errors_come_before_any_work",)),
)

PIVOT_SEARCH = "next((i for i in range(r, len(out)) if out[i][c]), None)"

EQUIVALENTS = (
    # the reduced row echelon form is unique, so no pivot order shows
    Mutant("pivot: the last nonzero row", LINALG, PIVOT_SEARCH,
           "next((i for i in reversed(range(r, len(out))) if out[i][c]), "
           "None)",
           ELIMINATION),
    Mutant("pivot: the smallest nonzero magnitude", LINALG, PIVOT_SEARCH,
           "min((i for i in range(r, len(out)) if out[i][c]), "
           "key=lambda i: abs(out[i][c]), default=None)", ELIMINATION),
    # L(a, Mb) = L(b, Ma) for M = I, J, K, so the cyclic sum is unchanged
    Mutant("s_tensor: b and c swapped in the cyclic terms",
           "liecontact/chains.py",
           "images[(r + 1) % 3],\n"
           "                                            images[(r + 2) % 3])",
           "images[(r + 2) % 3],\n"
           "                                            images[(r + 1) % 3])",
           ("tests/test_chains.py::test_tensor_matches_the_matrix_formula",)),
)


def run_tests(src: Path, tests) -> bool:
    """True when the tests pass against the package under src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def apply(src: Path, mutant: Mutant) -> bool:
    """Replace the mutant's snippet in the copy; False when it does not
    occur exactly once."""
    path = src / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def main() -> int:
    entries = [(m, False) for m in MUTANTS] + [(m, True) for m in EQUIVALENTS]
    every_test = sorted({t for m, _ in entries for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if not run_tests(copy_src(tmp), every_test):
            print("the named tests fail on the unchanged source")
            return 1
    bad = 0
    for mutant, equivalent in entries:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            if not apply(src, mutant):
                verdict = "STALE"
            else:
                passed = run_tests(src, mutant.tests)
                if equivalent:
                    verdict = "equivalent" if passed else "KILLED EQUIVALENT"
                else:
                    verdict = "SURVIVED" if passed else "killed"
        bad += verdict not in ("killed", "equivalent")
        print("%-18s %s" % (verdict, mutant.name))
    print("%d of %d entries bad" % (bad, len(entries)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
