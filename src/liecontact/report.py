"""Verification suites and the machine-readable report.

Each suite runs a deterministic batch of exact checks around one theme and
yields records {name, claim, status, trials, witness, wall_time}. Suites
draw their randomness from a seed folded with the suite name, so selecting
a subset of suites never shifts the random streams of the others and
reports stay byte-identical across subset choices.
"""

from __future__ import annotations

import itertools
import random
import time
import zlib
from fractions import Fraction

from . import chains, extension, samplers
from .linalg import Mat, exp_nilpotent, rank_kernel
from .so_contact import (Signature, SoElement, bracket, bracket_gm1,
                         equivariance_checks, grading_check, jacobi_check,
                         rank_one_bracket, segre_rank, so_basis_degrees)
from .split_quat import (QuatStructureOnH, eigenspace_decompose,
                         levi_compat_residual, max_subspace_for_line,
                         norm_sq, quat_mul, rank_one_witness, stack_columns,
                         SplitQuaternion)

SUITE_NAMES = ("algebra", "quaternion", "extension", "normality", "chains",
               "reconstruction")
# Suites that fit a constant to the obstruction Psi or test it; Psi
# vanishes identically when n = 1.
_PSI_SUITES = ("extension", "normality", "reconstruction")


class SuiteConfig:
    """Settings for one verification run. Unknown suite names, and the
    obstruction suites at n = 1, are rejected here so the command line can
    surface them as usage errors."""

    __slots__ = ("sig", "seed", "trials", "suites", "timings")

    def __init__(self, p: int, q: int, seed=0, trials=100,
                 suites=SUITE_NAMES, timings=False):
        sig = Signature(p, q)
        suites = tuple(suites)
        if not suites:
            raise ValueError("at least one suite is required")
        for s in suites:
            if s not in SUITE_NAMES:
                raise ValueError("unknown suite: %s" % s)
        if sig.n == 1:
            rejected = [s for s in suites if s in _PSI_SUITES]
            if rejected:
                raise ValueError(
                    "n = 1 cannot run %s: every contact direction has "
                    "rank one, so Psi vanishes identically"
                    % ", ".join(rejected))
        if trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "trials", int(trials))
        object.__setattr__(self, "suites", suites)
        object.__setattr__(self, "timings", bool(timings))

    def __setattr__(self, name, value):
        raise AttributeError("SuiteConfig is immutable")


def _check(records, timings, name, claim, trials, fn):
    started = time.perf_counter()
    try:
        ok, witness = fn()
    except Exception as exc:
        ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
    records.append({
        "name": name,
        "claim": claim,
        "status": "pass" if ok else "fail",
        "trials": trials,
        "witness": None if ok else (witness or "counterexample not captured"),
        "wall_time": (time.perf_counter() - started) if timings else None,
    })


def _suite_algebra(sig: Signature, rng, trials, timings):
    records = []

    def jacobi():
        total, failures = jacobi_check(sig)
        return failures == 0, "%d failing triples" % failures

    dim = len(so_basis_degrees(sig))
    _check(records, timings, "jacobi-basis-triples",
           "Jacobi identity holds exactly on every basis triple",
           dim ** 3, jacobi)

    def grading():
        failures = grading_check(sig)
        return failures == 0, "%d pairs break the grading" % failures

    _check(records, timings, "bracket-grading",
           "basis brackets land in the expected grading slots",
           dim ** 2, grading)

    def levi_closed():
        for _ in range(trials):
            x = samplers.rand_gm1(sig, rng)
            y = samplers.rand_gm1(sig, rng)
            closed = bracket_gm1(sig, x, y)
            full = bracket(SoElement(sig, X=x), SoElement(sig, X=y))
            if full != closed * SoElement.generator_e(sig):
                return False, "x=%r y=%r" % (x, y)
        return True, None

    _check(records, timings, "levi-closed-form",
           "closed-form bottom bracket matches the matrix commutator",
           trials, levi_closed)

    def orth_invariance():
        for _ in range(trials):
            c = samplers.rand_opq(sig, rng)
            x = samplers.rand_gm1(sig, rng)
            y = samplers.rand_gm1(sig, rng)
            r1, _ = equivariance_checks(sig, c, Mat.identity(2), x, y)
            if r1 != 0:
                return False, "C=%r x=%r y=%r" % (c, x, y)
        return True, None

    _check(records, timings, "orthogonal-invariance",
           "bottom bracket is invariant under the orthogonal factor",
           trials, orth_invariance)

    def det_scaling():
        for _ in range(trials):
            a = samplers.rand_mat(rng, 2, 2)
            x = samplers.rand_gm1(sig, rng)
            y = samplers.rand_gm1(sig, rng)
            _, r2 = equivariance_checks(sig, Mat.identity(sig.n), a, x, y)
            if r2 != 0:
                return False, "A=%r x=%r y=%r" % (a, x, y)
        return True, None

    _check(records, timings, "determinant-scaling",
           "bottom bracket scales by det A under the GL(2) factor",
           trials, det_scaling)

    def rank_one_closed():
        n = sig.n
        for _ in range(trials):
            f1 = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
            f2 = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
            u1 = [samplers.rand_fraction(rng) for _ in range(n)]
            u2 = [samplers.rand_fraction(rng) for _ in range(n)]
            x = Mat([[u1[i] * f1[0], u1[i] * f1[1]] for i in range(n)])
            y = Mat([[u2[i] * f2[0], u2[i] * f2[1]] for i in range(n)])
            closed = rank_one_bracket(sig, f1, f2, u1, u2)
            if bracket_gm1(sig, x, y) != closed:
                return False, "f1=%r f2=%r u1=%r u2=%r" % (f1, f2, u1, u2)
        return True, None

    _check(records, timings, "rank-one-bracket",
           "bracket of rank-one elements matches its closed form",
           trials, rank_one_closed)
    return records


def _suite_quaternion(sig: Signature, rng, trials, timings):
    records = []
    st = QuatStructureOnH.standard(sig)

    def relations():
        one = SplitQuaternion(1)
        i = SplitQuaternion(0, 1)
        j = SplitQuaternion(0, 0, 1)
        k = SplitQuaternion(0, 0, 0, 1)
        ok = (quat_mul(i, i) == one and quat_mul(j, j) == one
              and quat_mul(k, k) == -one and quat_mul(i, j) == k)
        for _ in range(trials):
            p = SplitQuaternion(*(samplers.rand_fraction(rng)
                                  for _ in range(4)))
            q = SplitQuaternion(*(samplers.rand_fraction(rng)
                                  for _ in range(4)))
            if norm_sq(quat_mul(p, q)) != norm_sq(p) * norm_sq(q):
                return False, "p=%r q=%r" % (p, q)
        return ok, "basis relations broken"

    _check(records, timings, "split-relations",
           "split-quaternion basis relations and norm multiplicativity",
           trials, relations)

    def pairing_compat():
        for _ in range(trials):
            coeffs = tuple(samplers.rand_fraction(rng) for _ in range(3))
            x = samplers.rand_gm1(sig, rng)
            y = samplers.rand_gm1(sig, rng)
            if levi_compat_residual(sig, coeffs, x, y) != 0:
                return False, "coeffs=%r x=%r y=%r" % (coeffs, x, y)
        return True, None

    _check(records, timings, "pairing-compatibility",
           "imaginary actions rescale the bottom bracket by their norm",
           trials, pairing_compat)

    def witness_vs_rank():
        for _ in range(trials):
            x = samplers.rand_mixed_gm1(sig, rng)
            w = rank_one_witness(x)
            rank = segre_rank(x)
            if (w is None) != (rank == 2):
                return False, "x=%r" % (x,)
            if w is not None:
                a, b, c = w
                if -a * a - b * b + c * c != -1:
                    return False, "x=%r witness=%r" % (x, w)
        return True, None

    _check(records, timings, "rank-one-witness",
           "skew reflections certify exactly the rank-one directions",
           trials, witness_vs_rank)

    def eigensplit():
        plus, minus = eigenspace_decompose(st)
        if len(plus) != sig.n or len(minus) != sig.n:
            return False, "eigenspace dimensions %d, %d" % (len(plus),
                                                            len(minus))
        for v in plus:
            cols = [stack_columns(m).column(0) for m in minus]
            cols.append(stack_columns(st.apply_j(v)).column(0))
            rank, _ = rank_kernel(Mat(cols).T)
            if rank != sig.n:
                return False, "J image leaves the opposite eigenspace"
        return True, None

    _check(records, timings, "eigenspace-swap",
           "product structure splits evenly and J swaps the halves",
           1, eigensplit)

    def max_subspaces():
        for _ in range(trials):
            l = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
            if l == (0, 0):
                l = (Fraction(1), Fraction(0))
            basis = max_subspace_for_line(l, sig.n)
            combo = Mat.zeros(sig.n, 2)
            for m in basis:
                combo = combo + samplers.rand_fraction(rng) * m
            if segre_rank(combo) > 1:
                return False, "l=%r" % (l,)
            for m1 in basis:
                for m2 in basis:
                    if bracket_gm1(sig, m1, m2) != 0:
                        return False, "l=%r" % (l,)
        return True, None

    _check(records, timings, "null-subspaces",
           "kernel-line subspaces are rank-at-most-one and bracket-null",
           trials, max_subspaces)
    return records


def _suite_extension(sig: Signature, rng, trials, timings):
    records = []

    def hom_exact():
        failures, witness = extension.i_homomorphism_exact(
            sig, trials, rng.randrange(1 << 30))
        return failures == 0, repr(witness)

    _check(records, timings, "embedding-product-exact",
           "group embedding is multiplicative up to sign on exact pairs",
           trials, hom_exact)

    def hom_float():
        err = extension.i_homomorphism_float(sig, trials,
                                             rng.randrange(1 << 30))
        return err <= 1e-10, "max defect %.3e" % err

    _check(records, timings, "embedding-product-float",
           "float path of the embedding is multiplicative within 1e-10",
           trials, hom_float)

    def pair_conditions():
        rep = extension.check_pair_conditions(sig, min(trials, 50),
                                              rng.randrange(1 << 30))
        ok = (rep["equivariance_failures"] == 0
              and rep["derivative_failures"] == 0
              and rep["derivative_float_error"] <= 1e-6
              and rep["restriction_rank"] == rep["restriction_rank_expected"])
        return ok, repr(rep)

    _check(records, timings, "pair-conditions",
           "equivariance, derivative and rank conditions of the pair hold",
           min(trials, 50), pair_conditions)

    def support():
        rep = extension.psi_support_report(sig)
        ok = (rep["support_exact"] and rep["values_in_ss"]
              and rep["nonzero_pairs"] > 0)
        return ok, repr(rep)

    _check(records, timings, "obstruction-support",
           "obstruction map is supported on vertical-bottom pairs with "
           "trace-free block values",
           (4 * sig.n + 1) ** 2, support)

    def psi_equivariance():
        failures = extension.psi_equivariance_check(
            sig, min(trials, 25), rng.randrange(1 << 30))
        return failures == 0, "%d failing conjugations" % failures

    _check(records, timings, "obstruction-equivariance",
           "obstruction map intertwines the stabilizer actions",
           min(trials, 25), psi_equivariance)

    def symmetrization():
        cst = extension.fit_trilinear_constant(sig)
        for _ in range(trials):
            x = samplers.rand_col(rng, 2 * sig.n)
            y = samplers.rand_col(rng, 2 * sig.n)
            z = samplers.rand_col(rng, 2 * sig.n)
            val = extension.psi_trilinear(sig, x, y, z).m2_vector()
            ref = extension.symmetrized_reference(sig, x, y, z)
            if val != cst * ref:
                return False, "x=%r y=%r z=%r" % (x, y, z)
            if extension.r_block_path(sig, x, y) * z != val:
                return False, "block path: x=%r y=%r z=%r" % (x, y, z)
        return True, None

    _check(records, timings, "trilinear-symmetrization",
           "trilinear obstruction value is one constant times the "
           "symmetrized pairing form, and the block path agrees",
           trials, symmetrization)
    return records


def _suite_normality(sig: Signature, rng, trials, timings):
    records = []

    def normal():
        phi = extension.build_psi_cochain(sig)
        return extension.is_normal(phi), "codifferential has nonzero values"

    _check(records, timings, "codifferential-vanishes",
           "codifferential of the obstruction cochain is exactly zero",
           (4 * sig.n + 1) ** 2, normal)

    def curvature():
        rep = extension.curvature_report(extension.build_psi_cochain(sig))
        ok = (rep["homogeneities"] == [3] and rep["torsion_free"]
              and rep["regular"] and rep["nonzero"])
        return ok, repr(rep)

    _check(records, timings, "curvature-profile",
           "obstruction cochain is nonzero, torsion-free and homogeneous "
           "of degree three",
           1, curvature)
    return records


def _suite_chains(sig: Signature, rng, trials, timings):
    records = []
    e_mat = chains.chain_matrix(sig)

    def degree_one():
        if not (e_mat * e_mat).is_zero():
            return False, "generator squares to a nonzero matrix"
        for _ in range(trials):
            t = samplers.rand_fraction(rng)
            lhs = exp_nilpotent(t * e_mat, 2)
            if lhs != Mat.identity(sig.n + 4) + t * e_mat:
                return False, "t=%r" % (t,)
        return True, None

    _check(records, timings, "chain-exactness",
           "chain frames are exactly degree one in the parameter",
           trials, degree_one)

    def isotropy():
        for _ in range(trials):
            g = samplers.rand_oform(sig, rng)
            t = samplers.rand_fraction(rng)
            try:
                chains.chain_eval(sig, t, g)
            except ValueError:
                return False, "t=%r g=%r" % (t, g)
        return True, None

    _check(records, timings, "chain-isotropy",
           "every chain point is an exactly isotropic plane",
           trials, isotropy)

    def equivariance():
        for _ in range(trials):
            g = samplers.rand_oform(sig, rng)
            h = samplers.rand_oform(sig, rng)
            t = samplers.rand_fraction(rng)
            lhs = chains.chain_eval(sig, t, g * h)
            rhs = chains.act(sig, g, chains.chain_eval(sig, t, h))
            if lhs != rhs:
                return False, "t=%r" % (t,)
        return True, None

    _check(records, timings, "chain-equivariance",
           "group action commutes with chain evaluation",
           trials, equivariance)

    def transversality():
        for _ in range(trials):
            g = samplers.rand_oform(sig, rng)
            t = samplers.rand_fraction(rng)
            if not chains.chain_transversality(sig, t, g):
                return False, "t=%r" % (t,)
            x = SoElement(sig, X=samplers.rand_gm1(sig, rng))
            if chains.flow_transversality(sig, x, t):
                return False, "contact flow reported transverse, t=%r" % (t,)
        return True, None

    _check(records, timings, "chain-transversality",
           "chain velocities leave the contact distribution, contact "
           "flows do not",
           trials, transversality)

    def stabilizer():
        o = chains.origin(sig)
        for _ in range(trials):
            h = samplers.rand_q_element(sig, rng)
            if chains.act(sig, h.assemble(), o) != o:
                return False, repr(h)
        return True, None

    _check(records, timings, "origin-stabilizer",
           "stabilizer subgroup fixes the origin plane",
           trials, stabilizer)
    return records


def _rand_sl2pm(rng):
    """Random rational 2x2 matrix of determinant exactly +1 or -1."""
    a = samplers.rand_nonzero_fraction(rng)
    b = samplers.rand_fraction(rng)
    c = samplers.rand_fraction(rng)
    d = (1 + b * c) / a
    g = Mat([[a, b], [c, d]])
    if rng.random() < 0.5:
        g = g * Mat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]])
    return g


def _suite_reconstruction(sig: Signature, rng, trials, timings):
    records = []
    ev = chains.STensorEval.standard(sig)

    def dual_path():
        cst = chains.fit_pipeline_constant(ev)
        for _ in range(trials):
            xi = samplers.rand_gm1(sig, rng)
            eta = samplers.rand_gm1(sig, rng)
            zeta = samplers.rand_gm1(sig, rng)
            closed = chains.s_tensor(ev, xi, eta, zeta)
            pipe = chains.pipeline_s(sig, xi, eta, zeta)
            if closed != cst * pipe:
                return False, "xi=%r eta=%r zeta=%r" % (xi, eta, zeta)
        return True, None

    _check(records, timings, "tensor-dual-path",
           "closed-form cubic tensor is one constant times the pipeline "
           "value",
           trials, dual_path)

    def symmetry():
        for _ in range(min(trials, 200)):
            abc = (samplers.rand_gm1(sig, rng), samplers.rand_gm1(sig, rng),
                   samplers.rand_gm1(sig, rng))
            base = chains.s_tensor(ev, *abc)
            for perm in itertools.permutations(abc):
                if chains.s_tensor(ev, *perm) != base:
                    return False, repr(abc)
        return True, None

    _check(records, timings, "tensor-symmetry",
           "cubic tensor is totally symmetric",
           min(trials, 200), symmetry)

    samples = [samplers.rand_mixed_gm1(sig, rng) for _ in range(trials)]

    def classification():
        rep = chains.reconstruct_cone(ev, samples)
        return rep["matches_ground_truth"], repr(rep["witness"])

    _check(records, timings, "cone-classification",
           "tensor-based rank-one test matches the factorization rank on "
           "mixed samples",
           trials, classification)

    def invariance():
        base = chains.reconstruct_cone(ev, samples)["flags"]
        scaled = chains.reconstruct_cone(
            ev.rescaled(samplers.rand_nonzero_fraction(rng)), samples)
        changed = chains.reconstruct_cone(
            ev.basis_changed(_rand_sl2pm(rng)), samples)
        if scaled["flags"] != base:
            return False, "rescaling moved a classification"
        if changed["flags"] != base:
            return False, "basis change moved a classification"
        return scaled["matches_ground_truth"] and changed[
            "matches_ground_truth"], "ground truth mismatch after transform"

    _check(records, timings, "cone-invariance",
           "classification survives rescaling and admissible basis changes",
           trials, invariance)
    return records


_SUITE_FNS = {
    "algebra": _suite_algebra,
    "quaternion": _suite_quaternion,
    "extension": _suite_extension,
    "normality": _suite_normality,
    "chains": _suite_chains,
    "reconstruction": _suite_reconstruction,
}


def run(config: SuiteConfig) -> dict:
    """Execute the selected suites in declaration order and assemble the
    report dictionary (JSON-ready)."""
    records = []
    for name in SUITE_NAMES:
        if name not in config.suites:
            continue
        rng = random.Random(config.seed ^ zlib.crc32(name.encode("ascii")))
        records.extend(_SUITE_FNS[name](config.sig, rng, config.trials,
                                        config.timings))
    ok = all(r["status"] == "pass" for r in records)
    return {
        "schema": 1,
        "p": config.sig.p,
        "q": config.sig.q,
        "seed": config.seed,
        "trials": config.trials,
        "suites": [s for s in SUITE_NAMES if s in config.suites],
        "status": "pass" if ok else "fail",
        "records": records,
    }
