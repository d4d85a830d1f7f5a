"""Mutation gate: each mutant listed here must be killed by its tests.

    python tests/mutants.py

A mutant names a file under src/, an exact snippet of its text, the text
that replaces it and the pytest node ids that must catch the change. For
each mutant the script copies src/ to a temporary directory, replaces the
snippet (it must occur exactly once) and runs the named tests against the
copy, with PYTHONPATH pointing at it and pytest's plugin autoloading
off: the tests use no plugin, and an installed one can cost each run a
second of start-up. The tests kill the mutant when they fail.

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
COCHAIN = ("tests/test_extension.py::"
           "test_obstruction_cochain_matches_psi_on_every_pair",)
ELIMINATION = (T_LINALG + "test_elimination_matches_the_fraction_loops",)
PRODUCT = (T_LINALG + "test_kernel_product_matches_triple_loop",
           T_LINALG + "test_kernel_commutator_matches_reference")
G0_TESTS = (T_SO + "test_group_elements_reject_singular_b_and_"
            "non_orthogonal_c",)
Q_BLOCK = (T_SO + "test_q_closed_form_block_matches_elimination",)
Q_FRACTION = tuple(T_SO + "test_integer_q_matches_the_fraction_block_"
                   "formulas[%s]" % s for s in ("rand_q_element",
                                                "rand_q_square"))
Q_INVERSE = "cinv = self.sig.ipq_perm().conjugate_transpose(self.int_c)"
C_T = "cinv = IntMat(self.int_c.d, self.sig.n, list(zip(*self.int_c.dense)))"
B_INV_T = "(fi * bi.dense[0][i], fi * bi.dense[1][i])"
B_INV = "(fi * bi.dense[i][0], fi * bi.dense[i][1])"
JACOBI = (T_LINALG + "test_jacobi_failures_match_the_ordered_triple_loop",
          T_LINALG + "test_jacobi_failures_refuse_a_table_that_is_not_"
          "antisymmetric")
EXP = (T_LINALG + "test_exp_nilpotent_matches_the_explicit_sum",)
GRAM = (T_LINALG + "test_gram_check_matches_the_product_form",)
EQUALS = (T_LINALG + "test_int_mat_equality_matches_fraction_comparisons",)
COMBINATION = (T_LINALG + "test_int_mat_combination_matches_fraction_"
               "arithmetic",)
SO_PQ = (T_SO + "test_entrywise_so_pq_test_matches_the_product_form",
         T_SO + "test_so_element_rejects_bad_middle_block")
EXPORT_ERRORS = ("tests/test_report.py::"
                 "test_cli_export_errors_come_before_any_work",)
REPORT = "liecontact/report.py"
T_REPORT = "tests/test_report.py::"
TRIAL_LOOP = tuple("tests/test_report.py::test_trial_loop_" + name
                   for name in ("draws_every_trial_and_sets_up_once",
                                "stops_at_the_first_failing_trial",
                                "keeps_the_exception_witness"))
SO = "liecontact/so_contact.py"
EXT = "liecontact/extension.py"
SL = "liecontact/path_sl.py"
T_EXT = "tests/test_extension.py::"
T_SL = "tests/test_path_sl.py::"
JETS = (T_EXT + "test_integer_jets_match_the_dual_rat_route[2-2]",)
ALPHA = (T_EXT + "test_alpha_matches_the_two_product_reference",
         T_EXT + "test_integer_alpha_matches_the_fraction_formula")
EXACT_I = (T_EXT + "test_exact_embedding_matches_the_fraction_assembly",)
CONTRACTION = (T_EXT + "test_psi_from_cochain_matches_psi_of_the_hat_lifts"
               "[2-2]",)
CODIFFERENTIAL = (T_EXT + "test_codifferential_matches_the_trace_pairing_"
                  "reference",)
BLOCKS = (T_SO + "test_from_matrix_refuses_what_reassembly_refuses",
          T_SO + "test_table_coordinates_refuse_every_corrupted_entry")
SO_TABLE = (T_SO + "test_structure_constants_match_brackets",)
SO_ORDER = (T_SO + "test_table_basis_matches_the_block_by_block_oracle",)
SL_ORDER = (T_SL + "test_negative_basis_sits_at_the_documented_positions",)
SAMPLERS = "liecontact/samplers.py"
QUAT = "liecontact/split_quat.py"
T_SAMPLERS = "tests/test_samplers.py::"
OFORM = (T_SAMPLERS + "test_rand_oform_matches_the_three_factor_product",)
OPQ = (T_SAMPLERS + "test_rand_so_pq_and_rand_opq_match_their_diagonal_"
       "products",)
TABLES = (T_SO + "test_signed_permutation_tables_multiply_as_the_forms",
          "tests/test_chains.py::test_ambient_inverse_matches_elimination")

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
           "IntMat(self.d * other.d, other.cols,",
           "IntMat(self.d, other.cols,", PRODUCT),
    Mutant("commutator: da for da*db", LINALG,
           "IntMat(self.d * other.d, n,", "IntMat(self.d, n,", PRODUCT),
    Mutant("common rows: each matrix kept over its own denominator", LINALG,
           "[[(j, x * (d // s.d)) for j, x in r]", "[[(j, x) for j, x in r]",
           (T_LINALG + "test_common_rows_put_every_matrix_over_one_"
            "denominator",) + COCHAIN),
    # the integer combination sum c·m
    Mutant("combination: the first term's denominator where the lcm "
           "belongs", LINALG,
           "d = math.lcm(*[c.denominator * m.d for c, m in live])",
           "d = live[0][0].denominator * live[0][1].d if live else 1",
           COMBINATION + COCHAIN),
    Mutant("combination: a term not rescaled to the lcm", LINALG,
           "f = c.numerator * (d // (c.denominator * m.d))",
           "f = c.numerator", COMBINATION + COCHAIN),
    Mutant("combination: the first term taken unscaled", LINALG,
           "r[:] if f == 1", "r[:] if True", COMBINATION),
    Mutant("product: drop the division by d", LINALG,
           "Fraction(x, d) if x else _ZERO", "Fraction(x) if x else _ZERO",
           PRODUCT),
    # the Jacobi checker on unordered triples
    Mutant("jacobi: drop the antisymmetry check", LINALG,
           "!= {c: v for c, v in reverse.items() if v}):",
           "!= {c: v for c, v in reverse.items() if v}) and False:", JACOBI),
    Mutant("jacobi: weight 1 for a failing unordered triple", LINALG,
           "failures += 6", "failures += 1", JACOBI),
    # the +- comparison on integer rows
    Mutant("IntMat.equals: the sign accepted when not asked for", LINALG,
           "plus, minus = True, up_to_sign", "plus, minus = True, True",
           EQUALS),
    Mutant("IntMat.equals: rows compared without the cross denominators",
           LINALG, "left = [b * x for x in ra]", "left = list(ra)", EQUALS),
    # the nilpotent exponential
    Mutant("exp_nilpotent: 1/j for 1/j!", LINALG,
           "Fraction(1, math.factorial(j))", "Fraction(1, j)", EXP),
    Mutant("exp_nilpotent: one power beyond the stated bound", LINALG,
           "for j in range(1, nilpotency_bound + 1):",
           "for j in range(1, nilpotency_bound + 2):",
           EXP + (T_LINALG + "test_exp_nilpotent_bound_zero_always_raises",)),
    Mutant("exp_nilpotent: a power step that drops a factor of d", LINALG,
           "p = p * mi", "p = IntMat(p.d, n, dense=(p * mi).dense)", EXP),
    # the Gram check a^T·s·a on integer rows
    Mutant("Gram check: compared without its denominator scale", LINALG,
           "scale = self.d * self.d", "scale = 1", GRAM),
    Mutant("Gram check: the sign of S dropped", LINALG,
           "x *= t", "x *= 1", GRAM),
    # the so(p, q) test of the block check and the per-element matrix
    Mutant("so(p,q): skip the diagonal", SO,
           "for j in range(i, n):\n            mirror",
           "for j in range(i + 1, n):\n            mirror", SO_PQ),
    Mutant("so(p,q): wrong sign between the mirrored entries", SO,
           "(-mirror if signs[i] == signs[j]",
           "(-mirror if signs[i] != signs[j]", SO_PQ),
    Mutant("block constructor: D not checked", SO,
           "if _block_mismatch(sig, g):", "if False:", SO_PQ),
    Mutant("ad_so: h^T as the inverse, without the form S", SO,
           "pair = (h, ambient_inverse(self.sig, h))",
           "pair = (h, IntMat(h.d, h.cols,\n"
           "                              [list(c) for c in zip(*h.dense)]))",
           (T_SO + "test_q_adjoint_matches_matrix_conjugation",
            T_SO + "test_q_integer_pair_is_the_matrix_and_its_inverse")),
    # the per-signature caches
    Mutant("chain_matrix: rebuilt on every call", "liecontact/chains.py",
           "@functools.cache\ndef chain_matrix(", "def chain_matrix(",
           ("tests/test_chains.py::test_chain_matrix_is_built_once_per_"
            "signature",)),
    Mutant("assemble: one memo shared by every element", SO,
           "return self._matrix",
           "return SoElement.assemble.__dict__.setdefault(\"m\", "
           "self._matrix)",
           (T_SO + "test_assemble_builds_one_matrix_per_element",)),
    Mutant("Q assemble: one memo shared by every element", SO,
           "return h\n",
           "return QGroupElement.assemble.__dict__.setdefault(\"m\", h)\n",
           (T_SO + "test_q_assemble_builds_one_matrix_per_element",)),
    Mutant("assemble: Ipq*U^t without the sign flip", SO,
           "*((u0, u1) if s > 0 else (-u0, -u1))", "*(u0, u1)",
           (T_SO + "test_assemble_matches_the_block_products",)),
    Mutant("assemble: X^t*Ipq without the sign flip", SO,
           "[[e if s > 0 else -e for e, s in zip(col, signs)]",
           "[[e for e, s in zip(col, signs)]",
           (T_SO + "test_assemble_matches_the_block_products",)),
    # the one redundant-block check, behind from_matrix and the so table
    Mutant("from_matrix: block check removed", SO,
           "bad = _block_mismatch(sig, ints.dense)", "bad = None", BLOCKS),
    Mutant("from_matrix: an IntMat taken without the block check", SO,
           "bad = _block_mismatch(sig, ints.dense)",
           "bad = m is not ints and _block_mismatch(sig, ints.dense)",
           BLOCKS[:1]),
    Mutant("block check: z block not compared", SO,
           "!= (0, -z, 0):", "!= (0, -z, 0) and False:", BLOCKS),
    Mutant("block check: D not tested for so(p,q)", SO,
           "if m[2 + j][2 + i] != (-mirror", "if False and m[2 + j][2 + i] "
           "!= (-mirror", BLOCKS),
    Mutant("block check: U companion without the sign", SO,
           "!= (u if s > 0 else -u):", "!= u:",
           BLOCKS + (T_SO + "test_assemble_from_matrix_round_trip",)),
    Mutant("block check: X companion not compared", SO,
           "if m[lo + i][2 + j] != (x if s > 0 else -x):", "if False:",
           BLOCKS),
    # the structure-constant tables
    Mutant("table: the reverse pair not negated", LINALG,
           "{c: -v for c, v in sparse.items()})",
           "{c: v for c, v in sparse.items()})",
           SO_TABLE + (T_LINALG + "test_structure_table_on_sl2",)),
    Mutant("commutator: matrices of another size accepted", LINALG,
           "if not n == self.rows == other.rows == other.cols:", "if False:",
           (T_LINALG + "test_structure_table_needs_integer_square_matrices_"
            "of_one_size",
            T_LINALG + "test_int_mat_product_and_commutator_match_fraction_"
            "arithmetic")),
    Mutant("table: basis matrices with denominators accepted", LINALG,
           "if any(m.d != 1 for m in basis):", "if False:",
           (T_LINALG + "test_structure_table_needs_integer_square_matrices_"
            "of_one_size",)),
    Mutant("so table: D coordinates without the form sign", SO,
           "(2 + i, 2 + j, s) for i, s in enumerate(sig.signs())",
           "(2 + i, 2 + j, 1) for i, s in enumerate(sig.signs())",
           SO_TABLE + SO_ORDER),
    # the two basis-order tables and what reads them
    Mutant("so order: the X entries read row by row", SO,
           "for j in range(2) for i in range(n)),",
           "for i in range(n) for j in range(2)),", SO_ORDER + SO_TABLE),
    Mutant("so basis: D mirror entry without the form signs", SO,
           "g[c][r] = -e if signs[r - 2] == signs[c - 2] else e",
           "g[c][r] = -e", SO_ORDER),
    Mutant("sl order: the E entry ahead of the -2 column", SL,
           "return (*((2 + k, 0) for k in range(2 * n)), (1, 0),",
           "return ((1, 0), *((2 + k, 0) for k in range(2 * n)),", SL_ORDER),
    Mutant("codifferential: [Z_a, Z_b] read at the basis positions", EXT,
           "(ra == sb, (rb, sa), -1)", "(ra == sb, (sa, rb), -1)",
           CODIFFERENTIAL),
    Mutant("codifferential: the column of [Z, W] moved in, not out", EXT,
           "acc[i][r] -= k * x", "acc[i][r] += k * x", CODIFFERENTIAL),
    Mutant("codifferential: the row of [Z, W] moved to row r", EXT,
           "acc[s][j] += k * x", "acc[r][j] += k * x", CODIFFERENTIAL),
    # the slot table, the trace check and alpha
    Mutant("slot table: every slot read one column to the right", SL,
           "_slot_of(i, j, n) for j in range(m)",
           "_slot_of(i, j + 1, n) for j in range(m)",
           (T_SL + "test_slot_table_reads_match_slot_of",)),
    Mutant("IntMat.of: numerators without the lcm scale, seen by the trace "
           "check", LINALG,
           "(j, x * (d // q)) for j, x, q in r", "(j, x) for j, x, q in r",
           (T_SL + "test_trace_free_check_matches_the_trace",)),
    Mutant("trace check: the first diagonal entry skipped", SL,
           "if sum(r[i] for i, r in enumerate(ints.dense)):",
           "if sum(r[i] for i, r in enumerate(ints.dense) if i):",
           (T_SL + "test_trace_free_check_matches_the_trace",)),
    Mutant("alpha: s*U_0 without the sign on negative forms", EXT,
           "else (2 * u1[i], -2 * u0[i]))", "else (2 * u1[i], 2 * u0[i]))",
           ALPHA),
    Mutant("alpha: the form sign of the X_1, X_2 entries flipped", EXT,
           "(-x1, x0) if s > 0 else (x1, -x0)",
           "(x1, -x0) if s > 0 else (-x1, x0)", ALPHA),
    Mutant("alpha: U/2 in the top row without its 1/2", EXT,
           "top[2 + i], top[2 + n + i] = u0[i], u1[i]",
           "top[2 + i], top[2 + n + i] = 2 * u0[i], 2 * u1[i]", ALPHA),
    Mutant("alpha: the integers over L, not 2L", EXT,
           "IntMat(2 * big, m, rows)", "IntMat(big, m, rows)", ALPHA),
    # the obstruction cochain on integer rows
    Mutant("cochain: alpha images of the pair swapped", EXT,
           "[(1, ia.commutator(ib))]", "[(1, ib.commutator(ia))]", COCHAIN),
    Mutant("cochain: alpha of the bracket added, not subtracted", EXT,
           "(Fraction(-c, comm.d), _so_image(sig, k))",
           "(Fraction(c, comm.d), _so_image(sig, k))", COCHAIN),
    Mutant("cochain: the sign of a lift's z coordinate in its matrix", EXT,
           "zip(_lift_positions(sig), r)",
           "zip(_lift_positions(sig), [-r[0], *r[1:]])", COCHAIN),
    Mutant("cochain: a zero so bracket gives a zero value", EXT,
           "        return ia.commutator(ib)\n",
           "        return IntMat.combination([(0, ia)])\n",
           COCHAIN + (T_EXT + "test_zero_bracket_shortcut_gives_the_full_"
                      "cochain[2-2]",)),
    Mutant("lift basis rows: the A block transposed", SO,
           "[r[:2] for r in top]", "[list(c) for c in zip(*[r[:2] for r "
           "in top])]", (T_EXT + "test_lift_basis_rows_match_the_so_basis["
                         "2-2]",)),
    Mutant("from_coordinates: the denominator dropped", SO,
           "return _element(sig, IntMat(d, n + 4,",
           "return _element(sig, IntMat(1, n + 4,",
           (T_SO + "test_elements_hold_the_integer_rows_of_their_matrix["
            "Signature(2, 2)]",)),
    Mutant("so equality: the rows compared without their denominators", SO,
           "self.sig == other.sig and self.ints.equals(other.ints)",
           "self.sig == other.sig and self.ints.dense == other.ints.dense",
           (T_SO + "test_elements_hold_the_integer_rows_of_their_matrix["
            "Signature(2, 1)]",)),
    Mutant("sl equality: the rows compared without their denominators", SL,
           "self.n == other.n and self.ints.equals(other.ints)",
           "self.n == other.n and self.ints.dense == other.ints.dense",
           (T_EXT + "test_sl_elements_of_every_route_hold_their_integer_"
            "rows[Signature(2, 1)]",)),
    Mutant("cochain: bracket coordinates read without the block check", EXT,
           "coords = int_coordinates(",
           "coords = (lambda s, g: [g[r][c] * t for r, c, t\n"
           "                             in basis_positions(s)])(",
           (T_EXT + "test_obstruction_cochain_refuses_a_bracket_outside_the_"
            "algebra",)),
    # Psi read off the cochain, and the integer references beside it
    Mutant("psi_gq: alpha([x, y]) added, not subtracted", EXT,
           "(-1, _alpha_assembled(sig, bracket(x, y).ints))",
           "(1, _alpha_assembled(sig, bracket(x, y).ints))",
           (T_EXT + "test_psi_gq_matches_the_fraction_formula",)),
    Mutant("psi_from_coordinates: without its antisymmetric term", EXT,
           "x1[a] * x2[b] - x1[b] * x2[a]", "x1[a] * x2[b]", CONTRACTION),
    Mutant("psi_from_coordinates: the argument denominators dropped", EXT,
           "IntMat(d * c1.d * c2.d, m, acc)", "IntMat(d, m, acc)",
           CONTRACTION),
    Mutant("trilinear_ints: [W0, y] for [y, W0]", EXT,
           "sl_bracket(ye, w0(n))", "sl_bracket(w0(n), ye)",
           (T_EXT + "test_trilinear_ints_match_psi_trilinear[2-2]",)),
    Mutant("symmetrized_reference: one column's denominator dropped", EXT,
           "IntMat(dx * dy * dz, 1,", "IntMat(dx * dy, 1,",
           (T_EXT + "test_symmetrized_reference_matches_the_fraction_loops",)),
    Mutant("r_block_path: the block not halved", EXT,
           "IntMat(2 * dx * dy, 2 * n, rows)", "IntMat(dx * dy, 2 * n, rows)",
           (T_EXT + "test_r_block_matches_the_product_form",)),
    Mutant("r_block_path: R_ab without the form signs", EXT,
           "* s\n                 for j, s in enumerate(signs)]",
           "\n                 for j, s in enumerate(signs)]",
           (T_EXT + "test_r_block_matches_the_product_form",)),
    # the equivariance claims as products with i(h)
    Mutant("pair conditions: the two sides of alpha(Ad_h x)·i(h) swapped",
           EXT, "lhs = _alpha_assembled(sig, h.ad_int(x)) * ih",
           "lhs = ih * _alpha_assembled(sig, h.ad_int(x))",
           (T_EXT + "test_pair_conditions_summary",)),
    Mutant("Psi equivariance: the two sides of i(h)·Psi(a, b) swapped", EXT,
           "lhs = ih * value", "lhs = value * ih",
           (T_EXT + "test_psi_equivariance",)),
    Mutant("Psi equivariance: compared up to sign", EXT,
           "return lhs.equals(rhs)\n",
           "return lhs.equals(rhs, up_to_sign=True)\n",
           (T_EXT + "test_psi_equivariance_is_strict_about_the_sign",)),
    Mutant("Psi equivariance: the lifts not moved by Ad(h)", EXT,
           "(h.ad_int(_lift_ints(sig)[k][0]) for k in (a, b))",
           "(_lift_ints(sig)[k][0] for k in (a, b))",
           (T_EXT + "test_integer_psi_of_moved_lifts_matches_psi_gq["
            "Signature(2, 2)]",
            T_EXT + "test_psi_equivariance")),
    Mutant("ad_int: the redundant blocks not checked", SO,
           "if _block_mismatch(self.sig, g.dense):", "if False:",
           (T_EXT + "test_an_adjoint_action_that_leaves_the_algebra_is_"
            "refused",)),
    Mutant("rand_so_int: D without the form signs", SAMPLERS,
           "[[(s * e, dd) for e in r]", "[[(e, dd) for e in r]",
           (T_SAMPLERS + "test_so_draw_core_matches_the_fraction_draw["
            "Signature(2, 2)]",)),
    Mutant("i_product_defect: floats without the denominator", EXT,
           "Mat([[x / m.d for x in r] for r in m.dense])",
           "Mat([[float(x) for x in r] for r in m.dense])",
           (T_EXT + "test_i_map_product_rule_float",)),
    Mutant("entry: the heap not frozen", "liecontact/__main__.py",
           "        gc.freeze()", "        pass",
           (T_REPORT + "test_module_entry_matches_main_and_freezes_only_its_"
            "own_heap",)),
    Mutant("product-form claims: invertibility of i(h) not checked", EXT,
           "m = ih.rows\n    return (", "m = ih.rows\n    return True or (",
           (T_EXT + "test_product_form_loops_fail_on_a_wrong_"
            "embedding[zero]",)),
    # i(h) on integer rows, and the one layout of its blocks
    Mutant("i(h): the denominator without sbar", EXT,
           "IntMat(den * sbar.numerator, len(rows), rows)",
           "IntMat(den, len(rows), rows)", EXACT_I),
    Mutant("i(h): the integers of B not rescaled to the lcm", EXT,
           "f = sd * (den // (b.d * c.d))", "f = sd", EXACT_I),
    # i' on integer jets, and the float rows of the central differences
    Mutant("jet product: the term r·v dropped", EXT,
           "self.r * other.u + self.u * other.r", "self.u * other.r", JETS),
    Mutant("jet quotient: the cross term r·v dropped", EXT,
           "_Jet(self.r, self.u - self.r * other.u)", "_Jet(self.r, self.u)",
           JETS),
    Mutant("jet square root: the velocity not halved", EXT,
           "_Jet(1, self.u // 2)", "_Jet(1, self.u)", JETS),
    Mutant("integer jets: the velocities over L, not 2L", EXT,
           "big = 2 * math.lcm(", "big = math.lcm(", JETS),
    Mutant("central differences: both points at +step", EXT,
           "zip(at(step), at(-step))", "zip(at(step), at(step))",
           (T_EXT + "test_float_rows_match_the_mat_forms_bit_for_bit[2-2]",)),
    Mutant("plain_sum: compensated, as sum() of floats is since 3.12",
           LINALG,
           "    acc = 0.0\n    for x in values:\n        acc += x\n"
           "    return acc\n", "    return math.fsum(values)\n",
           ("tests/test_chains.py::test_normalized_span_sums_left_to_right",)),
    Mutant("i(h) layout: one sign of the lower block", EXT,
           "neg_s, neg_r = -s_, -r_", "neg_s, neg_r = s_, -r_",
           (T_EXT + "test_pair_conditions_summary",
            T_EXT + "test_i_prime_agrees_with_alpha_on_stabilizer")),
    Mutant("alpha_restriction_matrix: rebuilt on every call", EXT,
           "@functools.cache\ndef alpha_restriction_matrix(",
           "def alpha_restriction_matrix(",
           (T_EXT + "test_restriction_matrix_is_built_once_per_signature",)),
    Mutant("support: the trace read over every entry, not the diagonal",
           EXT, "sum(x for i, j, x in entries if i == j)",
           "sum(x for i, j, x in entries)", (T_EXT + "test_psi_support",)),
    # the exact products of real size, written on IntMat
    Mutant("bracket: [y, x] for [x, y]", SO,
           "from_matrix(x.sig, x.ints.commutator(y.ints))",
           "from_matrix(x.sig, y.ints.commutator(x.ints))",
           (T_SO + "test_bracket_matches_the_fraction_commutator",)),
    Mutant("bracket: the commutator formed as Mat products", SO,
           "return SoElement.from_matrix(x.sig, x.ints.commutator(y.ints))",
           "a, b = x.assemble(), y.assemble()\n"
           "    return SoElement.from_matrix(x.sig, a * b - b * a)",
           ("tests/test_golden.py::test_no_wide_fraction_product_reaches_a_"
            "report[report-2-2-seed0.json]",)),
    Mutant("sl_bracket: [y, x] for [x, y]", SL,
           "SlElement(x.n, x.ints.commutator(y.ints))",
           "SlElement(x.n, y.ints.commutator(x.ints))",
           (T_SL + "test_sl_bracket_matches_the_fraction_commutator",)),
    Mutant("flow_transversality: the frame where its inverse belongs",
           "liecontact/chains.py",
           "pullback = ambient_inverse(sig, frame) * (x.ints * frame)",
           "pullback = frame * (x.ints * frame)",
           ("tests/test_chains.py::test_pullbacks_match_the_eliminated_"
            "inverse",)),
    Mutant("chain-equivariance: h·g in place of g·h", REPORT,
           "gh = (IntMat.of(g) * IntMat.of(h)).to_mat()",
           "gh = (IntMat.of(h) * IntMat.of(g)).to_mat()",
           ("tests/test_golden.py::test_output_matches_its_golden_file["
            "report-2-2-seed0.json]",)),
    Mutant("chain-exactness: E² = 0 taken for granted", REPORT,
           "\"square_zero\": (ei * ei).is_zero()", "\"square_zero\": True",
           (T_REPORT + "test_chain_exactness_names_a_generator_that_does_"
            "not_square_to_zero",)),
    Mutant("rand_isotropic_rank_one: the null direction not rotated",
           SAMPLERS, "u = (_opq_int(sig, rng) * IntMat.of(Mat.col(u0)))",
           "u = (_opq_int(sig, rng) and IntMat.of(Mat.col(u0)))",
           (T_SAMPLERS + "test_isotropic_samplers_match_their_products["
            "Signature(2, 1)]",)),
    Mutant("rand_isotropic_plane: the null plane not rotated", SAMPLERS,
           "plane = (_opq_int(sig, rng) * IntMat.of(Mat(rows)))",
           "plane = (_opq_int(sig, rng) and IntMat.of(Mat(rows)))",
           (T_SAMPLERS + "test_isotropic_samplers_match_their_products["
            "Signature(2, 2)]",)),
    Mutant("chain-exactness: I + tE formed without I", REPORT,
           "frame = IntMat.combination([(1, one), (t, e_int)]).to_mat()",
           "frame = IntMat.combination([(t, e_int)]).to_mat()",
           ("tests/test_golden.py::test_output_matches_its_golden_file["
            "report-2-2-seed0.json]",)),
    Mutant("eigenspaces: the -1 eigenspace taken for the +1", QUAT,
           "_, plus = rank_kernel(_right_mult_operator(structure.mi - ident",
           "_, plus = rank_kernel(_right_mult_operator(structure.mi + ident",
           ("tests/test_split_quat.py::test_eigenspace_split_and_swap",)),
    Mutant("right multiplication operator: the blocks transposed", QUAT,
           "m[c // n, r // n] if r % n == c % n",
           "m[r // n, c // n] if r % n == c % n",
           ("tests/test_split_quat.py::test_right_mult_operator_matches_the_"
            "products",)),
    # the chain generator
    Mutant("chain_matrix: no E^2 = 0 check", "liecontact/chains.py",
           "if not (ei * ei).is_zero():", "if False:",
           ("tests/test_chains.py::test_chain_matrix_rejects_a_generator_"
            "that_does_not_square_to_zero",)),
    Mutant("ChainCurve.at: the frame's third and fourth columns",
           "liecontact/chains.py",
           "self._frame(t, 0, 2)", "self._frame(t, 2, 4)",
           ("tests/test_chains.py::test_chain_through_origin_has_linear_span",
            "tests/test_chains.py::test_chain_equivariance",
            "tests/test_chains.py::test_chain_point_is_the_frame_first_two_"
            "columns")),
    Mutant("ChainCurve: gE with the moved columns unsigned",
           "liecontact/chains.py",
           "out[j] = r[k] if sign > 0 else -r[k]", "out[j] = r[k]",
           ("tests/test_chains.py::test_affine_frame_matches_the_"
            "exponential",)),
    Mutant("ChainCurve frame: the velocity without t", "liecontact/chains.py",
           "u, v = t.numerator, t.denominator", "u, v = 1, 1",
           ("tests/test_chains.py::test_chain_point_is_the_frame_first_two_"
            "columns",)),
    Mutant("ChainCurve frame: the velocity without t, seen by "
           "chain-exactness", "liecontact/chains.py",
           "u, v = t.numerator, t.denominator", "u, v = 1, 1",
           ("tests/test_golden.py::test_output_matches_its_golden_file["
            "report-2-2-seed0.json]",)),
    Mutant("emit_trajectory: accept an empty or descending range",
           "liecontact/chains.py",
           "if t0 >= t1:", "if False:",
           ("tests/test_chains.py::"
            "test_emit_trajectory_needs_an_increasing_range",)),
    # the cubic tensor on integer rows, and the one g_-1 pairing
    Mutant("s_tensor: a pairing without the image's denominator",
           "liecontact/chains.py",
           "den * a.d * b.d * c.d", "den * a.d * c.d",
           ("tests/test_chains.py::test_tensor_matches_the_matrix_formula",)),
    Mutant("g_-1 pairing: the form signs dropped", SO,
           "acc += t if s > 0 else -t", "acc += t",
           (T_SO + "test_bracket_gm1_matches_the_inner_formula",)),
    Mutant("g_-1 pairing: the form signs dropped, seen by the tensor", SO,
           "acc += t if s > 0 else -t", "acc += t",
           ("tests/test_chains.py::test_tensor_matches_the_matrix_formula",)),
    Mutant("rank_one_by_S: every direction with vanishing pairings taken "
           "for rank one", "liecontact/chains.py",
           "return _rank(zip(*cols)) == _rank(zip(*cols, _stacked(x)))",
           "return True",
           ("tests/test_chains.py::test_rank_one_by_s_matches_the_matrix_"
            "formula",)),
    Mutant("ModelPoint: a span of rank one accepted", "liecontact/chains.py",
           "if _rank(ints.dense) != 2:", "if _rank(ints.dense) == 0:",
           ("tests/test_chains.py::test_model_point_rank_matches_rank_"
            "kernel",)),
    # the big-cell sampler on integer rows
    Mutant("rand_oform: the sign of z in the zJ corner", SAMPLERS,
           "corner, d1 = _corner(signs, xt, dx, z)",
           "corner, d1 = _corner(signs, xt, dx, (-z[0], z[1]))", OFORM),
    Mutant("rand_oform: the sign of z, seen by the seed 1 chain CSV",
           SAMPLERS, "corner, d1 = _corner(signs, xt, dx, z)",
           "corner, d1 = _corner(signs, xt, dx, (-z[0], z[1]))",
           ("tests/test_golden.py::test_output_matches_its_golden_file["
            "chain-2-2-seed1.csv]",)),
    Mutant("rand_oform: XᵀIpqX and UIpqUᵀ without the ½", SAMPLERS,
           "half, fz = d // (2 * dv * dv),", "half, fz = d // (dv * dv),",
           OFORM),
    Mutant("rand_oform: B^-T without the determinant", SO,
           "return IntMat(_det2(b.dense), 2,", "return IntMat(1, 2,", OFORM),
    Mutant("rand_oform: the IpqUᵀ block without the form signs", SAMPLERS,
           "(lo, f * s * u[0][i]), (lo + 1, f * s * u[1][i])",
           "(lo, f * u[0][i]), (lo + 1, f * u[1][i])", OFORM),
    Mutant("rand_opq: row signs instead of column signs", SAMPLERS,
           "[[x if s > 0 else -x for x, s in zip(r[n:], signs)]"
           " for r in rows]",
           "[[x if s > 0 else -x for x in r[n:]]"
           " for r, s in zip(rows, signs)]", OPQ),
    Mutant("rand_opq: D = A, without Ipq", SAMPLERS,
           "di = [s * x for x in r]", "di = list(r)", OPQ),
    Mutant("rand_opq: a singular I - D accepted", SAMPLERS,
           "if pivots[:n] == list(range(n)):", "if True:", OPQ),
    # S and Ipq as signed permutations
    Mutant("S table: one sign", SO,
           "(-1, -1, *self.signs(), -1, -1)", "(-1, 1, *self.signs(), -1, -1)",
           TABLES),
    Mutant("S table: the signs of one swapped pair", SO,
           "(-1, -1, *self.signs(), -1, -1)", "(1, -1, *self.signs(), 1, -1)",
           TABLES),
    Mutant("S table: a swapped pair in the permutation", SO,
           "(n + 2, n + 3, *range(2, n + 2), 0, 1)",
           "(n + 3, n + 2, *range(2, n + 2), 1, 0)", TABLES),
    Mutant("signed permutation: P·m^T·P without the transpose", LINALG,
           "[[data[k][l] if s * t > 0 else -data[k][l]",
           "[[data[l][k] if s * t > 0 else -data[l][k]", TABLES),
    Mutant("signed permutation: asymmetric tables accepted", LINALG,
           "or any(perm[k] != i or signs[k] != signs[i]\n"
           "                       for i, k in enumerate(perm))):",
           "):", (T_SO + "test_signed_permutations_must_be_symmetric",)),
    Mutant("Gram check: a signed-permutation target read without its signs",
           LINALG, "want[k] = t * scale", "want[k] = scale",
           (T_LINALG + "test_gram_check_reads_signed_permutation_forms",)),
    Mutant("Q inverse: C^T without Ipq", SO, Q_INVERSE, C_T,
           (T_SO + "test_q_group_composition_against_assembled_product",)),
    Mutant("Q inverse: C^T without Ipq, seen by obstruction-equivariance",
           SO, Q_INVERSE, C_T,
           (T_EXT + "test_obstruction_equivariance_sees_a_wrong_group_"
            "inverse",)),
    Mutant("ipq_perm: rebuilt on every call", SO,
           "    @functools.cache\n    def ipq_perm(self)",
           "    def ipq_perm(self)",
           (T_SO + "test_signature_constants_are_built_once",)),
    Mutant("form_s_perm: rebuilt on every call", SO,
           "    @functools.cache\n    def form_s_perm(self)",
           "    def form_s_perm(self)",
           (T_SO + "test_signature_constants_are_built_once",)),
    Mutant("rat: a Fraction subclass returned as it is", LINALG,
           "if type(x) is Fraction:\n        return x",
           "if isinstance(x, Fraction):\n        return x",
           (T_LINALG + "test_rat_returns_a_fraction_as_it_is",)),
    # the registry's trial loop
    Mutant("trial loop: one trial fewer", REPORT,
           "for _ in range(trials):", "for _ in range(trials - 1):",
           TRIAL_LOOP),
    Mutant("trial loop: a reason string taken for a pass", REPORT,
           "if verdict is not True:", "if verdict is False:", TRIAL_LOOP),
    Mutant("trial loop: setup run on every trial", REPORT,
           "constants = setup(sig) if setup else {}\n"
           "            for _ in range(trials):\n",
           "for _ in range(trials):\n"
           "                constants = setup(sig) if setup else {}\n",
           TRIAL_LOOP),
    Mutant("trial loop: a witness without its inputs", REPORT,
           "for item in inputs.items())", "for item in {}.items())",
           TRIAL_LOOP),
    # the suites of one run in forked workers
    Mutant("runner: the workers' records read in reverse suite order",
           REPORT, "for suite in suites[1:]:\n            with open(",
           "for suite in reversed(suites[1:]):\n            with open(",
           (T_REPORT + "test_concurrent_report_equals_the_in_process_"
            "report",)),
    Mutant("runner: a dead worker's suite dropped, not failed", REPORT,
           "records += _unreported(config, suite, code)", "records += []",
           (T_REPORT + "test_a_worker_that_ends_early_fails_its_suite",)),
    Mutant("runner: --timings no longer keeps the suites in process", REPORT,
           "if config.timings or len(suites) == 1:",
           "if len(suites) == 1:",
           (T_REPORT + "test_only_a_run_without_timings_leaves_this_"
            "process",)),
    # the group-element checks and the CLI
    Mutant("G0: skip the invertibility check", "liecontact/so_contact.py",
           "if _det2(b.dense) == 0:", "if False:", G0_TESTS),
    Mutant("G0: accept a B that is not 2x2", SO,
           "if b.rows != 2 or b.cols != 2:", "if False:",
           (T_SO + "test_group_elements_reject_a_b_that_is_not_2x2",)),
    # the closed form of the 2x2 block B
    Mutant("det_b: ad + bc", SO, "return a * d - b * c",
           "return a * d + b * c", Q_BLOCK),
    Mutant("B^-1: the adjugate without its signs", SO,
           "[[q * d, -r * d], [-s * d, p * d]]",
           "[[q * d, r * d], [s * d, p * d]]", Q_BLOCK),
    Mutant("Q assemble: B^-1 where (B^-1)^T belongs", SO, B_INV_T, B_INV,
           Q_BLOCK),
    Mutant("integer h: the B^-T block untransposed, seen by the Fraction "
           "block formulas", SO, B_INV_T, B_INV, Q_FRACTION),
    Mutant("integer h: the sign of the w·B·J block", SO,
           "rows[i][lo:] = -fw * x1, fw * x0",
           "rows[i][lo:] = fw * x1, -fw * x0", Q_FRACTION),
    Mutant("G0: skip the orthogonality check", "liecontact/so_contact.py",
           "if not c.gram_equals(ipq, ipq):", "if False:",
           G0_TESTS + (T_SO + "test_equivariance_rejects_non_orthogonal_c",)),
    Mutant("cli: a zero denominator in --t-max escapes as a traceback",
           "liecontact/cli.py",
           "except (ValueError, ZeroDivisionError) as exc:",
           "except ValueError as exc:", EXPORT_ERRORS),
    Mutant("cli: no check that --t-min < --t-max", "liecontact/cli.py",
           "if t_min >= t_max:", "if False:", EXPORT_ERRORS),
    Mutant("cli: an existing directory accepted as an output file",
           "liecontact/cli.py",
           "if path and os.path.isdir(path):", "if False:", EXPORT_ERRORS),
    Mutant("cli: one file accepted for both outputs", "liecontact/cli.py",
           "== os.path.realpath(args.export_chain)):",
           "== os.path.realpath(args.export_chain) and False):",
           EXPORT_ERRORS),
    Mutant("cli: no check that the output directories exist",
           "liecontact/cli.py",
           "if folder and not os.path.isdir(folder):", "if False:",
           ("tests/test_report.py::test_cli_missing_output_directory_comes_"
            "before_any_work",)),
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
           "imgs[(r + 1) % 3], imgs[(r + 2) % 3]",
           "imgs[(r + 2) % 3], imgs[(r + 1) % 3]",
           ("tests/test_chains.py::test_tensor_matches_the_matrix_formula",)),
    # the basis lifts assemble to integer matrices at every signature, so
    # the so bracket of two of them has denominator 1
    Mutant("cochain: the so bracket's denominator dropped", EXT,
           "(Fraction(-c, comm.d), _so_image(sig, k))",
           "(-c, _so_image(sig, k))", COCHAIN),
)


def run_tests(src: Path, tests) -> bool:
    """True when the tests pass against the package under src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
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
