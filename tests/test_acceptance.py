"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test additionally prints a one-line verdict. Each
criterion runs the registry checks of `liecontact.report` that state its
claim, at its own signatures, seeds and trial counts, and collects every
failing (signature, check, witness) so that a failure names its
counterexample. Assertions that no check makes (fixed constants, fixed
transforms, adversarial samples) are stated inline. All algebraic
identities are exact; the only tolerances are those of the float checks.
"""

import csv
import json
import random
from fractions import Fraction

from liecontact import samplers
from liecontact.chains import (STensorEval, act, chain_eval,
                               fit_pipeline_constant, reconstruct_cone)
from liecontact.cli import main
from liecontact.extension import fit_trilinear_constant
from liecontact.linalg import IntMat
from liecontact.report import CHECKS, run_checks
from liecontact.so_contact import Signature

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))
BY_NAME = {c.name: c for c in CHECKS}


def _failures(sig, names, rng=None, trials=1):
    """(signature, check, witness) for each named check that fails."""
    records = run_checks(sig, rng, trials, [BY_NAME[n] for n in names])
    return [(sig, r["name"], r["witness"]) for r in records
            if r["status"] != "pass"]


def _verdict(number, failures, text):
    print("criterion %02d: %s - %s" % (number, "FAIL" if failures else "PASS",
                                       text))
    assert not failures, "counterexamples: %r" % (failures,)


def test_criterion_01_jacobi_and_grading_exact():
    failures = []
    for sig in SIGS:
        failures += _failures(sig, ["jacobi-basis-triples", "bracket-grading"])
    triples = sum(BY_NAME["jacobi-basis-triples"].rule(sig, 1) for sig in SIGS)
    _verdict(1, failures,
             "Jacobi identity and bracket grading exact on all %d basis "
             "triples across signatures (2,1), (3,0), (2,2)" % triples)


def test_criterion_02_closed_bracket_and_equivariance():
    rng = random.Random(2026)
    failures = []
    for sig in SIGS:
        failures += _failures(sig, ["levi-closed-form"], rng, 1000)
        failures += _failures(sig, ["orthogonal-invariance",
                                    "determinant-scaling"], rng, 500)
    _verdict(2, failures,
             "bottom-grade bracket closed form on 1000 pairs and both "
             "invariance identities on 500 pairs per signature, all exact")


def test_criterion_03_embedding_and_pair_conditions():
    failures = []
    for sig in SIGS:
        for name, seed, trials in (("embedding-product-exact", 7, 500),
                                   ("embedding-product-float", 8, 500),
                                   ("pair-conditions", 9, 50)):
            failures += _failures(sig, [name], random.Random(seed), trials)
    _verdict(3, failures,
             "embedding is multiplicative up to sign on 500 exact pairs "
             "(defects <= 1e-10 on 500 float pairs) and the pair "
             "conditions hold per signature")


def test_criterion_04_obstruction_support():
    failures = []
    for sig in SIGS:
        failures += _failures(sig, ["obstruction-support"])
    _verdict(4, failures,
             "obstruction is supported exactly on (vertical, bottom) slot "
             "pairs with trace-free block values, checked on every basis "
             "pair per signature")


def test_criterion_05_trilinear_constant_and_r_blocks():
    rng = random.Random(2027)
    failures = []
    for sig in SIGS:
        failures += _failures(sig, ["trilinear-symmetrization"], rng, 500)
        cst = fit_trilinear_constant(sig)
        if cst != Fraction(-1, 2):
            failures.append((sig, "trilinear constant -1/2", cst))
    _verdict(5, failures,
             "trilinear bracket expression equals -1/2 times the fully "
             "symmetrized pairing form and the closed-form block matrix on "
             "500 random triples per signature, exactly")


def test_criterion_06_normality_and_homogeneity():
    failures = []
    for sig in SIGS:
        failures += _failures(sig, ["codifferential-vanishes",
                                    "curvature-profile"])
    _verdict(6, failures,
             "obstruction cochain is nonzero, torsion free, of homogeneity "
             "exactly {3}, and is killed by the codifferential, exactly per "
             "signature")


def test_criterion_07_chain_geometry():
    rng = random.Random(2028)
    failures = []
    for sig in SIGS:
        failures += _failures(sig, ["chain-exactness"], rng, 20)
        failures += _failures(sig, ["chain-isotropy"], rng, 200)
        failures += _failures(sig, ["chain-equivariance",
                                    "chain-transversality"], rng, 100)
        # the identity-frame chain, which chain-equivariance never draws
        for _ in range(100):
            g = samplers.rand_oform(sig, rng)
            t = samplers.rand_fraction(rng)
            if chain_eval(sig, t, g) != act(sig, g, chain_eval(sig, t)):
                failures.append((sig, "identity-frame equivariance", t))
    _verdict(7, failures,
             "chains have exactly linear frames, stay isotropic at 200 "
             "random frames, are equivariant and transverse at 100, and "
             "contact-direction flows are not transverse")


def test_criterion_08_tensor_dual_path_and_classification():
    rng = random.Random(2029)
    failures = []
    counts = {"(2,1)": 350, "(3,0)": 300, "(2,2)": 350}
    total = 0
    for sig in SIGS:
        ev = STensorEval.standard(sig)
        cst = fit_pipeline_constant(ev)
        if cst != 2:
            failures.append((sig, "pipeline constant 2", cst))
        failures += _failures(sig, ["tensor-dual-path"], rng, 500)
        key = "(%d,%d)" % (sig.p, sig.q)
        failures += _failures(sig, ["cone-classification"], rng, counts[key])
        adversarial = []
        if sig.q >= 1:
            adversarial.extend(samplers.rand_isotropic_rank_one(sig, rng)
                               for _ in range(50))
        if sig.p >= 2 and sig.q >= 2:
            adversarial.extend(samplers.rand_isotropic_plane(sig, rng)
                               for _ in range(50))
            grid = IntMat(1, 2, [[1, 0], [0, 1], [1, 0], [0, 1]])
            adversarial.append(grid)
        total += counts[key] + len(adversarial)
        rep = reconstruct_cone(ev, adversarial)
        if not rep["matches_ground_truth"]:
            failures.append((sig, "adversarial classification",
                             rep["witness"]))
    _verdict(8, failures,
             "cubic tensor equals twice the cochain pipeline on 500 triples "
             "per signature and classifies %d mixed and adversarial "
             "directions" % total)


def test_criterion_09_classification_invariance():
    rng = random.Random(2030)
    failures = []
    shear = IntMat(1, 2, [[1, 1], [0, 1]])
    swap = IntMat(1, 2, [[0, 1], [1, 0]])
    for sig in SIGS:
        # fixed rescalings and determinant +-1 basis changes
        ev = STensorEval.standard(sig)
        samples = [samplers.rand_mixed_gm1(sig, rng) for _ in range(60)]
        base = reconstruct_cone(ev, samples)
        moved = [ev.rescaled(s) for s in (Fraction(7, 3), Fraction(-2))]
        moved += [ev.basis_changed(g) for g in (shear, swap, shear * swap)]
        if not base["matches_ground_truth"] or any(
                reconstruct_cone(e, samples)["flags"] != base["flags"]
                for e in moved):
            failures.append((sig, "fixed transforms", base["witness"]))
        failures += _failures(sig, ["cone-classification", "cone-invariance"],
                              rng, 60)
    _verdict(9, failures,
             "classification of 60 directions per signature is unchanged "
             "under nonzero rescalings and determinant +-1 basis changes")


def test_criterion_10_cli_determinism(tmp_path):
    failures = []
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / ("report_%s.json" % tag)
        chain = tmp_path / ("chain_%s.csv" % tag)
        code = main(["--p", "2", "--q", "2", "--seed", "3", "--trials",
                     "10", "--suite", "algebra", "--suite", "quaternion",
                     "--suite", "extension", "--suite", "normality",
                     "--suite", "chains", "--suite", "reconstruction",
                     "--out", str(out), "--export-chain", str(chain),
                     "--chain-g", "random", "--t-min=-2", "--t-max", "2",
                     "--steps", "9"])
        if code != 0:
            failures.append(("exit code", tag, code))
        pairs.append((out.read_bytes(), chain.read_bytes()))
    if pairs[0] != pairs[1]:
        failures.append(("outputs differ between runs",))
    report = json.loads(pairs[0][0])
    failures += [("record", r["name"], r["witness"])
                 for r in report["records"] if r["status"] != "pass"]
    if report["status"] != "pass":
        failures.append(("report status", report["status"]))
    rows = list(csv.reader(pairs[0][1].decode("ascii").splitlines()))
    if rows[0][0] != "t" or len(rows) != 10:
        failures.append(("chain csv shape", rows[0][0], len(rows)))
    _verdict(10, failures,
             "two CLI runs produce byte-identical passing JSON reports and "
             "chain CSVs")
