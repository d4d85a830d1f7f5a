"""Verification suites and the machine-readable report.

Every check is declared once, in `CHECKS`: its suite, name, claim,
trial-count rule and a function of (sig, rng, trials) returning
(ok, witness). A randomized check is declared with `_trials` as a claim
on named inputs, and one trial loop runs every such claim: it draws each
trial's inputs, stops at the first trial whose claim fails and writes
that trial's inputs as the witness. `run_checks` turns entries into
records {name, claim, status, trials, witness, wall_time}; the command
line and the acceptance criteria both go through it. Suites draw their
randomness from a seed folded with the suite name, so selecting a subset
of suites never shifts the random streams of the others and reports stay
byte-identical across subset choices. It also lets `run` give each suite
after the first to a forked worker process, so that the suites of one
report run concurrently.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
import zlib
from fractions import Fraction
from typing import Callable, NamedTuple

from . import chains, extension, samplers
from .linalg import IntMat, Mat, exp_nilpotent, rank_kernel
from .path_sl import sl_neg_slots
from .so_contact import (Signature, SoElement, bracket, bracket_gm1,
                         grading_check, jacobi_check,
                         orthogonal_residual, rank_one_bracket,
                         scaling_residual, segre_rank, so_basis_degrees)
from .split_quat import (QuatStructureOnH, eigenspace_decompose,
                         levi_compat_residual, max_subspace_for_line,
                         norm_sq, quat_mul, rank_one_witness, stack_columns,
                         SplitQuaternion)


class Check(NamedTuple):
    """One registry entry. `rule(sig, trials)` is the trial count the
    record reports and `fn(sig, rng, trials)` receives; for a check
    declared with `_trials`, `fn` is the trial loop around its claim.
    Entries that name the same `draws(sig, rng, trials)` share its value
    within one `run_checks` call; it is drawn by the first of them and
    passed as a fourth argument. `needs_psi` marks checks that fit a
    constant to Psi or need it nonzero, which fails at n = 1."""

    suite: str
    name: str
    claim: str
    rule: Callable
    fn: Callable
    draws: Callable | None = None
    needs_psi: bool = False


_TABLE = []


def _configured(sig, trials):
    return trials


def _declare(suite, name, claim, rule=_configured, **kw):
    """Append the decorated function to the table; by default a check
    runs the configured number of trials."""
    def add(fn):
        _TABLE.append(Check(suite, name, claim, rule, fn, **kw))
        return fn
    return add


def _trials(suite, name, claim, draw, rule=_configured, setup=None, **kw):
    """Declare the decorated claim `fn(sig, **constants, **inputs)` as a
    randomized check. `setup(sig)` gives the named constants once per
    record; each trial draws its named inputs, in order, with
    `draw(sig, rng)`. The claim returns True, False, or a string naming
    the part of the claim that failed. The first trial that does not
    return True fails the record; its witness is that trial's inputs as
    name=repr pairs in draw order, after "<reason>: " when there is one."""
    def add(fn):
        def run(sig, rng, trials):
            constants = setup(sig) if setup else {}
            for _ in range(trials):
                inputs = draw(sig, rng)
                verdict = fn(sig, **constants, **inputs)
                if verdict is not True:
                    reason = verdict + ": " if isinstance(verdict, str) else ""
                    return False, reason + " ".join(
                        "%s=%r" % item for item in inputs.items())
            return True, None
        _declare(suite, name, claim, rule, **kw)(run)
        return fn
    return add


def _draw(**samplers_by_name):
    """A draw of named inputs, each from its sampler (sig, rng), in
    keyword order."""
    return lambda sig, rng: {name: sample(sig, rng)
                             for name, sample in samplers_by_name.items()}


def _fractions(k):
    return lambda sig, rng: tuple(samplers.rand_fraction(rng)
                                  for _ in range(k))


def _row(sig, rng):
    return [samplers.rand_fraction(rng) for _ in range(sig.n)]


def _fraction(sig, rng):
    return samplers.rand_fraction(rng)


_gm1 = samplers.rand_gm1


def _at_most(cap):
    return lambda sig, trials: min(trials, cap)


def _once(sig, trials):
    return 1


def _basis_power(k):
    return lambda sig, trials: len(so_basis_degrees(sig)) ** k


def _negative_pairs(sig, trials):
    return (4 * sig.n + 1) ** 2


def run_checks(sig: Signature, rng, trials: int, checks, timings=False):
    """Records of `checks`, run in order on one random stream. A check that
    raises becomes a failing record whose witness is the exception."""
    drawn = {}
    records = []
    for check in checks:
        count = check.rule(sig, trials)
        started = time.perf_counter()
        try:
            args = (sig, rng, count)
            if check.draws is not None:
                if check.draws not in drawn:
                    drawn[check.draws] = check.draws(*args)
                args += (drawn[check.draws],)
            ok, witness = check.fn(*args)
        except Exception as exc:
            ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
        records.append(_record(
            check, count, ok, witness,
            (time.perf_counter() - started) if timings else None))
    return records


def _record(check, count, ok, witness, wall_time):
    return {
        "name": check.name,
        "claim": check.claim,
        "status": "pass" if ok else "fail",
        "trials": count,
        "witness": None if ok else (witness or "counterexample not captured"),
        "wall_time": wall_time,
    }


@_declare("algebra", "jacobi-basis-triples",
          "Jacobi identity holds exactly on every basis triple",
          _basis_power(3))
def _jacobi(sig, rng, trials):
    total, failures = jacobi_check(sig)
    return failures == 0, "%d failing triples" % failures


@_declare("algebra", "bracket-grading",
          "basis brackets land in the expected grading slots",
          _basis_power(2))
def _grading(sig, rng, trials):
    failures = grading_check(sig)
    return failures == 0, "%d pairs break the grading" % failures


@_trials("algebra", "levi-closed-form",
         "closed-form bottom bracket matches the matrix commutator",
         _draw(x=_gm1, y=_gm1))
def _levi_closed(sig, x, y):
    full = bracket(SoElement(sig, X=x), SoElement(sig, X=y))
    return full == SoElement(sig, z=bracket_gm1(sig, x, y))


@_trials("algebra", "orthogonal-invariance",
         "bottom bracket is invariant under the orthogonal factor",
         _draw(C=samplers.rand_opq, x=_gm1, y=_gm1))
def _orth_invariance(sig, C, x, y):
    return orthogonal_residual(sig, C, x, y) == 0


@_trials("algebra", "determinant-scaling",
         "bottom bracket scales by det A under the GL(2) factor",
         _draw(A=lambda sig, rng: samplers.rand_mat(rng, 2, 2), x=_gm1,
               y=_gm1))
def _det_scaling(sig, A, x, y):
    return scaling_residual(sig, A, x, y) == 0


@_trials("algebra", "rank-one-bracket",
         "bracket of rank-one elements matches its closed form",
         _draw(f1=_fractions(2), f2=_fractions(2), u1=_row, u2=_row))
def _rank_one_closed(sig, f1, f2, u1, u2):
    x = Mat([[u * f1[0], u * f1[1]] for u in u1])
    y = Mat([[u * f2[0], u * f2[1]] for u in u2])
    return bracket_gm1(sig, x, y) == rank_one_bracket(sig, f1, f2, u1, u2)


def _quaternion(sig, rng):
    return SplitQuaternion(*(samplers.rand_fraction(rng) for _ in range(4)))


def _basis_relations(sig):
    one, i, j, k = (SplitQuaternion(*[0] * t, 1) for t in range(4))
    return {"basis_ok": quat_mul(i, i) == one and quat_mul(j, j) == one
            and quat_mul(k, k) == -one and quat_mul(i, j) == k}


@_trials("quaternion", "split-relations",
         "split-quaternion basis relations and norm multiplicativity",
         _draw(p=_quaternion, q=_quaternion), setup=_basis_relations)
def _relations(sig, basis_ok, p, q):
    if not basis_ok:
        return "basis relations broken"
    return norm_sq(quat_mul(p, q)) == norm_sq(p) * norm_sq(q)


@_trials("quaternion", "pairing-compatibility",
         "imaginary actions rescale the bottom bracket by their norm",
         _draw(coeffs=_fractions(3), x=_gm1, y=_gm1))
def _pairing_compat(sig, coeffs, x, y):
    return levi_compat_residual(sig, coeffs, x, y) == 0


@_trials("quaternion", "rank-one-witness",
         "skew reflections certify exactly the rank-one directions",
         _draw(x=samplers.rand_mixed_gm1))
def _witness_vs_rank(sig, x):
    w = rank_one_witness(x)
    if (w is None) != (segre_rank(x) == 2):
        return "witness %r against the rank" % (w,)
    if w is None:
        return True
    a, b, c = w
    return -a * a - b * b + c * c == -1 or "witness %r has norm != -1" % (w,)


@_declare("quaternion", "eigenspace-swap",
          "product structure splits evenly and J swaps the halves", _once)
def _eigensplit(sig, rng, trials):
    st = QuatStructureOnH.standard(sig)
    plus, minus = eigenspace_decompose(st)
    if len(plus) != sig.n or len(minus) != sig.n:
        return False, "eigenspace dimensions %d, %d" % (len(plus), len(minus))
    for v in plus:
        cols = [stack_columns(m).column(0) for m in minus]
        cols.append(stack_columns(st.apply_j(v)).column(0))
        rank, _ = rank_kernel(Mat(cols).T)
        if rank != sig.n:
            return False, "J image leaves the opposite eigenspace"
    return True, None


def _line(sig, rng):
    l = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
    return (Fraction(1), Fraction(0)) if l == (0, 0) else l


@_trials("quaternion", "null-subspaces",
         "kernel-line subspaces are rank-at-most-one and bracket-null",
         _draw(l=_line, coeffs=_row))
def _max_subspaces(sig, l, coeffs):
    basis = [IntMat.of(m) for m in max_subspace_for_line(l, sig.n)]
    combo = IntMat.combination(list(zip(coeffs, basis))).to_mat()
    if segre_rank(combo) > 1:
        return "combination of rank two"
    return all(bracket_gm1(sig, m1, m2) == 0
               for m1 in basis for m2 in basis) or "nonzero basis bracket"


@_trials("extension", "embedding-product-exact",
         "group embedding is multiplicative up to sign on exact pairs",
         _draw(h1=samplers.rand_q_square, h2=samplers.rand_q_square))
def _hom_exact(sig, h1, h2):
    return extension.i_product_rule(h1, h2)


@_trials("extension", "embedding-product-float",
         "float path of the embedding is multiplicative within 1e-10",
         _draw(h1=samplers.rand_q_element, h2=samplers.rand_q_element))
def _hom_float(sig, h1, h2):
    err = extension.i_product_defect(h1, h2)
    return err <= 1e-10 or "defect %.3e" % err


@_declare("extension", "pair-conditions",
          "equivariance, derivative and rank conditions of the pair hold",
          _at_most(50))
def _pair_conditions(sig, rng, trials):
    rep = extension.check_pair_conditions(sig, trials, rng.randrange(1 << 30))
    ok = (rep["equivariance_failures"] == 0
          and rep["derivative_failures"] == 0
          and rep["derivative_float_error"] <= 1e-6
          and rep["restriction_rank"] == 4 * sig.n + 1)
    return ok, repr(rep)


@_declare("extension", "obstruction-support",
          "obstruction map is supported on vertical-bottom pairs with "
          "trace-free block values", _negative_pairs)
def _support(sig, rng, trials):
    rep = extension.psi_support_report(sig)
    ok = (rep["support_exact"] and rep["values_in_ss"]
          and rep["nonzero_pairs"] > 0 and rep["witness"] is None)
    return ok, repr(rep)


def _slot_index(slot):
    """A draw of one negative basis index of the given slot."""
    return lambda sig, rng: rng.choice(
        [k for k, s in enumerate(sl_neg_slots(sig.n)) if s == slot])


@_trials("extension", "obstruction-equivariance",
         "obstruction map intertwines the stabilizer actions",
         _draw(h=samplers.rand_q_square, a=_slot_index("m1V"),
               b=_slot_index("m2")), _at_most(25))
def _psi_equivariance(sig, h, a, b):
    return extension.psi_equivariance_check(sig, h, a, b)


def _m2_col(sig, rng):
    return samplers.rand_col(rng, 2 * sig.n)


@_trials("extension", "trilinear-symmetrization",
         "trilinear obstruction value is one constant times the "
         "symmetrized pairing form, and the block path agrees",
         _draw(x=_m2_col, y=_m2_col, z=_m2_col),
         setup=lambda sig: {"cst": extension.fit_trilinear_constant(sig)},
         needs_psi=True)
def _symmetrization(sig, cst, x, y, z):
    # psi_trilinear on integer rows, keeping Psi(x, [y, W0]) to compare
    # whole blocks: the m2 column of the value and the 2n block of Psi; each
    # column is read as integers once
    x, y, z = (IntMat.of(v) for v in (x, y, z))
    psi, val = extension.trilinear_ints(sig, x, y, z)
    ref = extension.symmetrized_ints(sig, x, y, z)
    if not IntMat(val.d, 1, [r[:1] for r in val.dense[2:]]).equals(
            IntMat.combination([(cst, ref)])):
        return False
    block = IntMat(psi.d, 2 * sig.n, [r[2:] for r in psi.dense[2:]])
    return block.equals(extension.r_block_path(sig, x, y)) or "block path"


@_declare("normality", "codifferential-vanishes",
          "codifferential of the obstruction cochain is exactly zero",
          _negative_pairs)
def _normal(sig, rng, trials):
    phi = extension.build_psi_cochain(sig)
    return extension.is_normal(phi), "codifferential has nonzero values"


@_declare("normality", "curvature-profile",
          "obstruction cochain is nonzero, torsion-free and homogeneous "
          "of degree three", _once, needs_psi=True)
def _curvature(sig, rng, trials):
    rep = extension.curvature_report(extension.build_psi_cochain(sig))
    ok = (rep["homogeneities"] == [3] and rep["torsion_free"]
          and rep["regular"] and rep["nonzero"])
    return ok, repr(rep)


def _chain_generator(sig):
    ei = IntMat.of(chains.chain_matrix(sig))
    return {"e_int": ei, "square_zero": (ei * ei).is_zero()}


@_trials("chains", "chain-exactness",
         "chain frames are exactly degree one in the parameter",
         _draw(t=_fraction), setup=_chain_generator)
def _degree_one(sig, e_int, square_zero, t):
    if not square_zero:
        return "generator squares to a nonzero matrix"
    size = sig.n + 4
    one = IntMat(1, size, sparse=[[(i, 1)] for i in range(size)])
    frame = IntMat.combination([(1, one), (t, e_int)]).to_mat()  # I + tE
    if chains.chain_eval(sig, t).span != frame.submat(0, size, 0, 2):
        return "chain point is not the first two columns of I + tE"
    te = IntMat.combination([(t, e_int)]).to_mat()
    return exp_nilpotent(te, 2) == frame


@_trials("chains", "chain-isotropy",
         "every chain point is an exactly isotropic plane",
         _draw(g=samplers.rand_oform, t=_fraction))
def _isotropy(sig, g, t):
    return chains.chain_eval(sig, t, g).span.rows == sig.n + 4


@_trials("chains", "chain-equivariance",
         "group action commutes with chain evaluation",
         _draw(g=samplers.rand_oform, h=samplers.rand_oform, t=_fraction))
def _equivariance(sig, g, h, t):
    gh = (IntMat.of(g) * IntMat.of(h)).to_mat()
    return (chains.chain_eval(sig, t, gh)
            == chains.act(sig, g, chains.chain_eval(sig, t, h)))


@_trials("chains", "chain-transversality",
         "chain velocities leave the contact distribution, contact "
         "flows do not", _draw(g=samplers.rand_oform, t=_fraction, x=_gm1))
def _transversality(sig, g, t, x):
    if not chains.chain_transversality(sig, t, g):
        return "chain velocity inside the contact distribution"
    return (not chains.flow_transversality(sig, SoElement(sig, X=x), t)
            or "contact flow reported transverse")


@_trials("chains", "origin-stabilizer",
         "stabilizer subgroup fixes the origin plane",
         _draw(h=samplers.rand_q_element),
         setup=lambda sig: {"o": chains.origin(sig)})
def _stabilizer(sig, o, h):
    return chains.act(sig, h.assemble(), o) == o


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


def _cone_samples(sig, rng, trials):
    return [samplers.rand_mixed_gm1(sig, rng) for _ in range(trials)]


def _tensor(sig):
    return {"ev": chains.STensorEval.standard(sig)}


def _tensor_and_constant(sig):
    ev = chains.STensorEval.standard(sig)
    return {"ev": ev, "cst": chains.fit_pipeline_constant(ev)}


@_trials("reconstruction", "tensor-dual-path",
         "closed-form cubic tensor is one constant times the pipeline value",
         _draw(xi=_gm1, eta=_gm1, zeta=_gm1), setup=_tensor_and_constant,
         needs_psi=True)
def _dual_path(sig, ev, cst, xi, eta, zeta):
    return (chains.s_tensor(ev, xi, eta, zeta)
            == cst * chains.pipeline_s(sig, xi, eta, zeta))


@_trials("reconstruction", "tensor-symmetry",
         "cubic tensor is totally symmetric", _draw(a=_gm1, b=_gm1, c=_gm1),
         _at_most(200), setup=_tensor)
def _symmetry(sig, ev, a, b, c):
    plain = [IntMat.of(m) for m in (a, b, c)]
    base = chains.s_tensor_int(ev, *plain)
    return all(chains.s_tensor_int(ev, *perm).equals(base)
               for perm in itertools.permutations(plain))


@_declare("reconstruction", "cone-classification",
          "tensor-based rank-one test matches the factorization rank on "
          "mixed samples", draws=_cone_samples)
def _classification(sig, rng, trials, samples):
    rep = chains.reconstruct_cone(chains.STensorEval.standard(sig), samples)
    return rep["matches_ground_truth"], repr(rep["witness"])


@_declare("reconstruction", "cone-invariance",
          "classification survives rescaling and admissible basis changes",
          draws=_cone_samples)
def _invariance(sig, rng, trials, samples):
    ev = chains.STensorEval.standard(sig)
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


CHECKS = tuple(_TABLE)
SUITE_NAMES = tuple(dict.fromkeys(c.suite for c in CHECKS))
# Suites with a check that needs Psi nonzero; Psi vanishes identically
# when n = 1, so SuiteConfig rejects them there.
_PSI_SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS if c.needs_psi))


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


def run(config: SuiteConfig) -> dict:
    """Execute the selected suites and assemble the report dictionary
    (JSON-ready), its records in declaration order. A run of more than one
    suite runs them concurrently (`_run_forked`), unless it fills
    wall_time: then every suite runs in this process, so that each
    wall_time is its record's own time and not the contention between
    suites."""
    suites = [s for s in SUITE_NAMES if s in config.suites]
    if config.timings or len(suites) == 1:
        records = [r for s in suites for r in _suite_records(config, s)]
    else:
        records = _run_forked(config, suites)
    ok = all(r["status"] == "pass" for r in records)
    return {
        "schema": 1,
        "p": config.sig.p,
        "q": config.sig.q,
        "seed": config.seed,
        "trials": config.trials,
        "suites": suites,
        "status": "pass" if ok else "fail",
        "records": records,
    }


def _suite_checks(suite):
    return [c for c in CHECKS if c.suite == suite]


def _suite_records(config: SuiteConfig, suite: str):
    """The suite's records, on its own stream: the seed folded with the
    suite name."""
    rng = random.Random(config.seed ^ zlib.crc32(suite.encode("ascii")))
    return run_checks(config.sig, rng, config.trials, _suite_checks(suite),
                      config.timings)


def _run_forked(config: SuiteConfig, suites):
    """The records of `suites`, in order. Each suite after the first runs in
    an os.fork()ed worker that writes its records as JSON to a pipe, while
    this process runs the first suite; the workers' records are then read
    in suite order. A worker that ends before it reports gives each check
    of its suite a failing record whose witness says how it ended. Every
    worker still running when this returns or raises is killed, and every
    worker is reaped."""
    pids, pipes = {}, {}
    try:
        for suite in suites[1:]:
            pids[suite], pipes[suite] = _fork(config, suite,
                                              list(pipes.values()))
        records = _suite_records(config, suites[0])
        for suite in suites[1:]:
            with open(pipes.pop(suite), "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(suite),
                                                        0)[1])
            if code == 0 and data:
                records += json.loads(data)
            else:
                records += _unreported(config, suite, code)
        return records
    finally:
        for fd in pipes.values():
            os.close(fd)
        if pids:
            import signal  # only here: the import costs start-up time
            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(config: SuiteConfig, suite: str, inherited):
    """(pid, read end of its pipe) of a worker that writes the suite's
    records to the pipe and leaves through os._exit, with status 0 once
    they are written. `inherited` are the read ends of the earlier
    workers' pipes, which the worker closes."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (read, *inherited):
                os.close(fd)
            data = json.dumps(_suite_records(config, suite)).encode()
            with open(write, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _unreported(config: SuiteConfig, suite: str, code: int):
    """Failing records for the checks of a suite whose worker ended with
    exit code `code`, or by signal -code, before it reported."""
    how = ("was killed by signal %d" % -code if code < 0
           else "exited with status %d" % code)
    witness = "the %s worker %s before it reported" % (suite, how)
    return [_record(c, c.rule(config.sig, config.trials), False, witness,
                    None) for c in _suite_checks(suite)]
