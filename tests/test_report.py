"""Tests for the suite runner, report determinism and the command line."""

import csv
import gc
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import zlib
from fractions import Fraction

import pytest

from liecontact import chains, extension, report, samplers
from liecontact.cli import main
from liecontact.linalg import IntMat, Mat
from liecontact.report import (CHECKS, SUITE_NAMES, Check, SuiteConfig, run,
                               run_checks)
from liecontact.so_contact import Signature
from liecontact.split_quat import QuatStructureOnH, SplitQuaternion, quat_mul
from oracles import form_s


def test_config_validation():
    with pytest.raises(ValueError, match="unknown suite"):
        SuiteConfig(2, 1, suites=("algebra", "nonsense"))
    with pytest.raises(ValueError, match="at least one suite"):
        SuiteConfig(2, 1, suites=())
    with pytest.raises(ValueError, match="trials"):
        SuiteConfig(2, 1, trials=0)
    with pytest.raises(ValueError, match="signature"):
        SuiteConfig(0, 0)
    # random.Random(-3) is random.Random(3): a negative seed is refused
    with pytest.raises(ValueError, match="seed must be at least 0, got -3"):
        SuiteConfig(2, 1, seed=-3)


def test_full_run_passes_and_has_the_report_shape():
    report = run(SuiteConfig(2, 1, trials=5))
    assert report["schema"] == 1
    assert (report["p"], report["q"]) == (2, 1)
    assert report["status"] == "pass"
    assert report["suites"] == list(SUITE_NAMES)
    for record in report["records"]:
        assert sorted(record) == ["claim", "name", "status", "trials",
                                  "wall_time", "witness"]
        assert record["status"] == "pass"
        assert record["witness"] is None
        assert record["wall_time"] is None


def test_runs_are_deterministic():
    a = run(SuiteConfig(2, 2, trials=4, seed=11))
    b = run(SuiteConfig(2, 2, trials=4, seed=11))
    assert json.dumps(a) == json.dumps(b)


def test_suite_subsets_do_not_shift_each_other():
    full = run(SuiteConfig(2, 1, trials=4))
    only = run(SuiteConfig(2, 1, trials=4, suites=("algebra",)))
    k = len(only["records"])
    assert k > 0
    assert full["records"][:k] == only["records"]
    tail = run(SuiteConfig(2, 1, trials=4, suites=("reconstruction",)))
    assert full["records"][-len(tail["records"]):] == tail["records"]


def test_timings_fill_wall_time():
    report = run(SuiteConfig(3, 0, trials=2, suites=("algebra",),
                             timings=True))
    for record in report["records"]:
        assert isinstance(record["wall_time"], float)
        assert record["wall_time"] >= 0.0


# ---------------------------------------------------------------------------
# suites in forked workers


def _nulled(report):
    for record in report["records"]:
        assert isinstance(record["wall_time"], float)
        record["wall_time"] = None
    return report


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("pq", [(2, 1), (3, 0), (2, 2)])
def test_concurrent_report_equals_the_in_process_report(pq, seed):
    concurrent = run(SuiteConfig(*pq, seed=seed, trials=3))
    in_process = _nulled(run(SuiteConfig(*pq, seed=seed, trials=3,
                                         timings=True)))
    assert json.dumps(concurrent) == json.dumps(in_process)


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patched_check(monkeypatch, name, fn):
    """report.CHECKS with the function of the check `name` replaced by
    fn."""
    monkeypatch.setattr(report, "CHECKS", tuple(
        c._replace(fn=fn) if c.name == name else c for c in report.CHECKS))


@pytest.mark.parametrize("end,how", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "was killed by signal %d" % signal.SIGKILL),
])
def test_a_worker_that_ends_early_fails_its_suite(monkeypatch, end, how):
    serial = _nulled(run(SuiteConfig(2, 1, trials=3, timings=True)))

    # chains runs in a worker; the first suite, algebra, runs here
    def chain_isotropy(sig, rng, trials):
        end()

    _patched_check(monkeypatch, "chain-isotropy", chain_isotropy)
    got = run(SuiteConfig(2, 1, trials=3))
    _no_child_is_left()
    assert got["status"] == "fail"
    chains_checks = [c.name for c in CHECKS if c.suite == "chains"]
    for want, record in zip(serial["records"], got["records"],
                            strict=True):
        if record["name"] in chains_checks:
            assert record == dict(
                want, status="fail", witness="the chains worker %s before "
                "it reported" % how)
        else:
            assert record == want


class _Abort(BaseException):
    pass


def test_workers_are_killed_and_reaped_when_the_run_raises(monkeypatch):
    def stuck(sig, rng, trials):
        time.sleep(60)

    def abort(sig, rng, trials):
        raise _Abort()

    _patched_check(monkeypatch, "chain-isotropy", stuck)
    _patched_check(monkeypatch, "jacobi-basis-triples", abort)
    started = time.perf_counter()
    with pytest.raises(_Abort):
        run(SuiteConfig(2, 1, trials=3))
    _no_child_is_left()
    assert time.perf_counter() - started < 30


@pytest.mark.parametrize("timings", [True, False])
def test_only_a_run_without_timings_leaves_this_process(monkeypatch,
                                                         timings):
    calls = []
    chain_matrix = chains.chain_matrix

    def counted(sig):
        calls.append(sig)
        return chain_matrix(sig)

    monkeypatch.setattr(chains, "chain_matrix", counted)
    got = run(SuiteConfig(2, 1, trials=2, suites=("algebra", "chains"),
                          timings=timings))
    assert got["status"] == "pass"
    # chains, the later suite, calls chain_matrix here only with timings
    assert bool(calls) == timings


# ---------------------------------------------------------------------------
# command line


def test_cli_report_is_byte_identical(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["--p", "2", "--q", "1", "--trials", "3", "--suite", "algebra",
            "--suite", "quaternion"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    report = json.loads(b1)
    assert report["status"] == "pass"
    names = [r["name"] for r in report["records"]]
    assert "jacobi-basis-triples" in names
    assert "split-relations" in names


# `python -m liecontact` in a fresh interpreter: the package this test
# imports, and a statement run before the module (a patch, or nothing)
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(extension.__file__))
_AS_MODULE = """\
import gc, runpy, sys
{patch}
try:
    runpy.run_module("liecontact", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("frozen %d" % (gc.get_freeze_count() > 0))
"""


def _python(args, patch=None):
    """The exit code and stderr of `python -m liecontact args`, or with a
    patch, of the module run by runpy after it; the stderr ends "frozen 1"
    when the entry froze the heap."""
    argv = (["-m", "liecontact"] if patch is None
            else ["-c", _AS_MODULE.format(patch=patch)])
    env = dict(os.environ, PYTHONPATH=_PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, *argv, *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    return proc.returncode, proc.stderr


def test_module_entry_matches_main_and_freezes_only_its_own_heap(tmp_path):
    args = ["--p", "2", "--q", "1", "--trials", "3", "--suite", "algebra",
            "--suite", "quaternion"]
    frozen = gc.get_freeze_count()
    assert main(args + ["--out", str(tmp_path / "main.json")]) == 0
    assert gc.get_freeze_count() == frozen  # callers in process: no freeze
    assert _python(args + ["--out", str(tmp_path / "module.json")]) == (0, "")
    assert (tmp_path / "module.json").read_bytes() == \
        (tmp_path / "main.json").read_bytes()
    code, err = _python(args + ["--out", str(tmp_path / "runpy.json")], "")
    assert (code, err[-8:]) == (0, "frozen 1")
    # a usage error, and a failing report, pass their exit codes through
    code, err = _python(["--p", "2", "--q", "1"])
    assert code == 2 and "nothing to do" in err
    failing = ("from liecontact import extension\n"
               "extension.build_psi_cochain = lambda sig: 1 / 0")
    code, err = _python(["--p", "2", "--q", "1", "--suite", "normality",
                         "--out", str(tmp_path / "fail.json")], failing)
    assert (code, err[-8:]) == (1, "frozen 1")
    assert json.loads((tmp_path / "fail.json").read_text())["status"] == \
        "fail"


def test_cli_stdout_report(capsys):
    assert main(["--p", "3", "--q", "0", "--trials", "2",
                 "--suite", "chains"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["suites"] == ["chains"]


def test_cli_chain_export(tmp_path):
    path1 = tmp_path / "c1.csv"
    path2 = tmp_path / "c2.csv"
    argv = ["--p", "2", "--q", "2", "--export-chain", None, "--chain-g",
            "random", "--seed", "5", "--t-min=-3/2", "--t-max", "3/2",
            "--steps", "7"]
    argv1 = [a if a is not None else str(path1) for a in argv]
    argv2 = [a if a is not None else str(path2) for a in argv]
    assert main(argv1) == 0
    assert main(argv2) == 0
    assert path1.read_bytes() == path2.read_bytes()
    with open(path1, newline="") as fh:
        rows = list(csv.reader(fh))
    n = 4
    assert rows[0] == ["t"] + ["c%d%d" % (i + 1, j + 1)
                               for i in range(n + 4) for j in range(2)]
    assert len(rows) == 1 + 7
    ts = [float(r[0]) for r in rows[1:]]
    assert ts == [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    sig = Signature(2, 2)
    sform = [[float(form_s(sig).data[i][j]) for j in range(n + 4)]
             for i in range(n + 4)]
    for r in rows[1:]:
        cols = [[float(r[1 + 2 * i + j]) for i in range(n + 4)]
                for j in range(2)]
        for a in range(2):
            norm = math.fsum(c * c for c in cols[a])
            assert abs(norm - 1.0) < 1e-12
            for b in range(2):
                pair = math.fsum(
                    cols[a][i] * sform[i][k] * cols[b][k]
                    for i in range(n + 4) for k in range(n + 4))
                assert abs(pair) < 1e-10


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as err:
        main(["--p", "2", "--q", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--p", "0", "--q", "0", "--suite", "algebra"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--p", "2", "--q", "1", "--suite", "bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--p", "2", "--q", "1", "--export-chain", "x.csv",
              "--steps", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("bad,message", [
    (["--steps", "1"], "steps must be at least 2"),
    (["--t-min", "abc"], "Invalid literal for Fraction: 'abc'"),
    (["--t-max", "1/0/2"], "Invalid literal for Fraction: '1/0/2'"),
    (["--t-max", "1/0"], "q != 0: Fraction(1, 0)"),
    (["--t-min", "1", "--t-max", "1"],
     "--t-min must be less than --t-max, got 1 and 1"),
    (["--t-min", "2", "--t-max", "1/2"],
     "--t-min must be less than --t-max, got 2 and 1/2"),
    # output paths; {tmp} is the test's own empty directory
    (["--out", "{tmp}"], "--out: {tmp} is a directory"),
    (["--export-chain", "{tmp}"], "--export-chain: {tmp} is a directory"),
    (["--export-chain", "{tmp}/r.json"],
     "--out and --export-chain name the same file {tmp}/r.json"),
    (["--export-chain", "{tmp}/./r.json"],
     "--out and --export-chain name the same file {tmp}/./r.json"),
    # a t whose float is infinite cannot be written to the t column
    (["--t-max", "1e400"],
     "--t-min and --t-max must lie in the float range, got -1 and 1e400"),
    (["--t-min=-1e309", "--t-max", "0"],
     "--t-min and --t-max must lie in the float range, got -1e309 and 0"),
    (["--seed", "-3"], "--seed must be at least 0, got -3"),
])
def test_cli_export_errors_come_before_any_work(tmp_path, capsys,
                                                monkeypatch, bad, message):
    def no_suite_may_run(config):
        raise AssertionError("a suite ran before the usage error")

    monkeypatch.setattr("liecontact.cli.run", no_suite_may_run)
    out = tmp_path / "r.json"
    csv_path = tmp_path / "c.csv"
    bad = [arg.format(tmp=tmp_path) for arg in bad]
    with pytest.raises(SystemExit) as err:
        main(["--p", "2", "--q", "1", "--suite", "algebra", "--trials", "2",
              "--out", str(out), "--export-chain", str(csv_path)] + bad)
    assert err.value.code == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert not out.exists()
    assert not csv_path.exists()


def test_cli_negative_seed_writes_nothing(tmp_path, capsys):
    # random.Random(-3) is random.Random(3): the export would replay seed 3
    csv_path = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as err:
        main(["--p", "2", "--q", "2", "--seed", "-3", "--chain-g", "random",
              "--export-chain", str(csv_path)])
    assert err.value.code == 2
    assert "--seed must be at least 0, got -3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("missing", ["--out", "--export-chain"])
def test_cli_missing_output_directory_comes_before_any_work(
        tmp_path, capsys, monkeypatch, missing):
    def no_suite_may_run(config):
        raise AssertionError("a suite ran before the usage error")

    monkeypatch.setattr("liecontact.cli.run", no_suite_may_run)
    paths = {"--out": tmp_path / "r.json",
             "--export-chain": tmp_path / "c.csv"}
    paths[missing] = tmp_path / "nodir" / paths[missing].name
    with pytest.raises(SystemExit) as err:
        main(["--p", "2", "--q", "1", "--suite", "algebra", "--trials", "2",
              "--out", str(paths["--out"]),
              "--export-chain", str(paths["--export-chain"])])
    assert err.value.code == 2
    assert ("%s: directory %s does not exist" % (missing, tmp_path / "nodir")
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_cli_timings_break_nothing(tmp_path):
    out = tmp_path / "t.json"
    assert main(["--p", "2", "--q", "1", "--trials", "2", "--suite",
                 "normality", "--timings", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(isinstance(r["wall_time"], float) for r in report["records"])


# ---------------------------------------------------------------------------
# n = 1: the obstruction suites are usage errors, the others still pass

N1_SIGNATURES = [(1, 0), (0, 1)]


@pytest.mark.parametrize("p,q", N1_SIGNATURES)
@pytest.mark.parametrize("suite", ["extension", "normality",
                                   "reconstruction"])
def test_n1_rejects_obstruction_suites(p, q, suite, capsys):
    with pytest.raises(ValueError, match="Psi vanishes identically"):
        SuiteConfig(p, q, suites=(suite,))
    with pytest.raises(SystemExit) as err:
        main(["--p", str(p), "--q", str(q), "--suite", suite])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "n = 1 cannot run %s" % suite in stderr
    assert "every contact direction has rank one" in stderr


@pytest.mark.parametrize("p,q", N1_SIGNATURES)
def test_n1_remaining_suites_pass(p, q, capsys):
    assert main(["--p", str(p), "--q", str(q), "--trials", "3",
                 "--suite", "algebra", "--suite", "quaternion",
                 "--suite", "chains"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["suites"] == ["algebra", "quaternion", "chains"]
    assert all(r["status"] == "pass" for r in report["records"])


def test_raising_check_becomes_a_failing_record():
    def boom(sig, rng, trials):
        raise ValueError("no unit triple found")

    check = Check("algebra", "boom", "a claim", lambda sig, trials: trials,
                  boom)
    records = run_checks(Signature(2, 1), None, 4, [check])
    assert records == [{
        "name": "boom",
        "claim": "a claim",
        "status": "fail",
        "trials": 4,
        "witness": "ValueError: no unit triple found",
        "wall_time": None,
    }]


def test_normality_cochain_failure_becomes_failing_records(monkeypatch):
    def boom(sig):
        raise RuntimeError("cochain build failed")

    monkeypatch.setattr(extension, "build_psi_cochain", boom)
    report = run(SuiteConfig(2, 1, suites=("normality",)))
    assert report["status"] == "fail"
    assert [r["name"] for r in report["records"]] == [
        "codifferential-vanishes", "curvature-profile"]
    for r in report["records"]:
        assert r["status"] == "fail"
        assert r["witness"] == "RuntimeError: cochain build failed"


# ---------------------------------------------------------------------------
# the check registry


def test_registry_entries_are_unique_and_grouped_by_suite():
    keys = [(c.suite, c.name) for c in CHECKS]
    assert len(set(keys)) == len(keys)
    assert SUITE_NAMES == ("algebra", "quaternion", "extension", "normality",
                           "chains", "reconstruction")
    suites = [c.suite for c in CHECKS]
    assert suites == sorted(suites, key=SUITE_NAMES.index)


@pytest.mark.parametrize("suites", [SUITE_NAMES, ("reconstruction", "algebra"),
                                    ("chains", "quaternion", "extension"),
                                    ("normality",)])
def test_records_follow_table_order(suites):
    report = run(SuiteConfig(2, 1, trials=2, suites=suites))
    assert [r["name"] for r in report["records"]] == [
        c.name for c in CHECKS if c.suite in suites]
    assert report["suites"] == [s for s in SUITE_NAMES if s in suites]


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("setup failed")


@pytest.mark.parametrize("suite,target,attr,failing", [
    ("quaternion", QuatStructureOnH, "standard", ["eigenspace-swap"]),
    ("chains", chains, "chain_matrix",
     ["chain-exactness", "chain-isotropy", "chain-equivariance",
      "chain-transversality"]),
    ("reconstruction", chains.STensorEval, "standard",
     ["tensor-dual-path", "tensor-symmetry", "cone-classification",
      "cone-invariance"]),
])
def test_raising_setup_becomes_failing_records(monkeypatch, suite, target,
                                               attr, failing):
    monkeypatch.setattr(target, attr, _raise_runtime_error)
    # alone, the suite runs in this process; after algebra, in a worker
    for suites in ((suite,), ("algebra", suite)):
        report = run(SuiteConfig(2, 1, trials=3, suites=suites))
        assert report["status"] == "fail"
        assert [r["name"] for r in report["records"]] == [
            c.name for c in CHECKS if c.suite in suites]
        for r in report["records"]:
            if r["name"] in failing:
                assert r["status"] == "fail"
                assert r["witness"] == "RuntimeError: setup failed"
            else:
                assert r["status"] == "pass"


def test_checks_sharing_a_draw_draw_it_once():
    calls = []

    def draw(sig, rng, trials):
        calls.append(trials)
        return [rng.random() for _ in range(trials)]

    def uses(sig, rng, trials, drawn):
        return len(drawn) == 3, None

    check = Check("algebra", "uses", "a claim", lambda sig, trials: trials,
                  uses, draws=draw)
    records = run_checks(Signature(2, 1), random.Random(0), 3,
                         [check, check])
    assert calls == [3]
    assert [r["status"] for r in records] == ["pass", "pass"]


# ---------------------------------------------------------------------------
# the trial loop, on a synthetic check that stays out of CHECKS


def _trial_check(monkeypatch, claim, fail_in=None):
    """A `_trials` check of `claim(sig, scale, x, y)` with x = 1, 2, ... and
    y = x/2, and the calls it makes; `fail_in` names a part that raises."""
    calls = {"setup": 0, "draw": 0}

    def setup(sig):
        calls["setup"] += 1
        if fail_in == "setup":
            raise RuntimeError("no unit triple found")
        return {"scale": 2}

    def draw(sig, rng):
        calls["draw"] += 1
        if fail_in == "draw":
            raise ValueError("singular sample")
        k = calls["draw"]
        return {"x": k, "y": Fraction(k, 2)}

    monkeypatch.setattr(report, "_TABLE", [])
    report._trials("algebra", "synthetic", "a claim", draw,
                   setup=setup)(claim)
    check, = report._TABLE
    return check, calls


def _record(check, trials=5):
    record, = run_checks(Signature(2, 1), random.Random(0), trials, [check])
    return record["status"], record["witness"]


def test_trial_loop_draws_every_trial_and_sets_up_once(monkeypatch):
    seen = []

    def claim(sig, scale, x, y):
        seen.append((scale, x, y))
        return scale * y == x

    check, calls = _trial_check(monkeypatch, claim)
    assert _record(check) == ("pass", None)
    assert calls == {"setup": 1, "draw": 5}
    assert seen == [(2, k, Fraction(k, 2)) for k in range(1, 6)]


@pytest.mark.parametrize("verdict,reason", [(False, ""),
                                            ("y is off", "y is off: ")])
def test_trial_loop_stops_at_the_first_failing_trial(monkeypatch, verdict,
                                                      reason):
    def claim(sig, scale, x, y):
        return verdict if x == 3 else True

    check, calls = _trial_check(monkeypatch, claim)
    assert _record(check) == ("fail", reason + "x=3 y=Fraction(3, 2)")
    assert calls == {"setup": 1, "draw": 3}


@pytest.mark.parametrize("fail_in,witness", [
    ("setup", "RuntimeError: no unit triple found"),
    ("draw", "ValueError: singular sample"),
    ("claim", "ZeroDivisionError: Fraction(1, 0)"),
])
def test_trial_loop_keeps_the_exception_witness(monkeypatch, fail_in,
                                                witness):
    def claim(sig, scale, x, y):
        return Fraction(1, x - 1) > 0

    check, _ = _trial_check(monkeypatch, claim, fail_in)
    assert _record(check) == ("fail", witness)


def _registry_record(name, trials=5):
    check, = [c for c in CHECKS if c.name == name]
    record, = run_checks(Signature(2, 1), random.Random(0), trials, [check])
    return record["status"], record["witness"]


def test_split_relations_checks_the_basis_once_per_record(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return quat_mul(a, b)

    monkeypatch.setattr(report, "quat_mul", counted)
    assert _registry_record("split-relations") == ("pass", None)
    assert len(calls) == 4 + 5  # the four basis relations, one per trial
    monkeypatch.setattr(report, "quat_mul", lambda a, b: SplitQuaternion(0))
    status, witness = _registry_record("split-relations")
    assert status == "fail"
    assert witness.startswith("basis relations broken: p=SplitQuaternion(")


def test_chain_exactness_names_a_generator_that_does_not_square_to_zero(
        monkeypatch):
    monkeypatch.setattr(chains, "chain_matrix",
                        lambda sig: IntMat.of(Mat.identity(sig.n + 4)))
    status, witness = _registry_record("chain-exactness")
    assert status == "fail"
    assert witness.startswith("generator squares to a nonzero matrix: t=")


# The sha256 of each witness below, first 16 hex digits, as the records
# wrote it when the samplers returned Mats: integer rows print as their
# Mat views, so the text did not move.
WITNESS_DIGESTS = {
    ("chain-equivariance", (2, 1)): "95500edbe21b3f63",
    ("chain-equivariance", (3, 3)): "2474a174988401fc",
    ("orthogonal-invariance", (2, 1)): "516a3c334905f727",
    ("orthogonal-invariance", (3, 3)): "ba9c41dc835a541c",
}


@pytest.mark.parametrize("name,pq", sorted(WITNESS_DIGESTS),
                         ids=["%s-%d-%d" % (name, *pq)
                              for name, pq in sorted(WITNESS_DIGESTS)])
def test_group_sample_witnesses_print_the_mat_views(monkeypatch, name, pq):
    # both claims made to fail on their first trial: the witness names the
    # drawn IntMats by their Mat views, as it did when they were Mats
    sig = Signature(*pq)
    monkeypatch.setattr(chains, "act", lambda sig, g, pt: chains.origin(sig))
    monkeypatch.setattr(report, "orthogonal_residual", lambda *args: 1)
    check, = [c for c in CHECKS if c.name == name]
    record, = run_checks(sig, random.Random(0), 5, [check])
    rng = random.Random(0)
    if name == "chain-equivariance":
        g, h = (samplers.rand_oform(sig, rng).to_mat() for _ in range(2))
        want = "g=%r h=%r t=%r" % (g, h, samplers.rand_fraction(rng))
    else:
        c = samplers.rand_opq(sig, rng).to_mat()
        x, y = samplers.rand_gm1(sig, rng), samplers.rand_gm1(sig, rng)
        want = "C=%r x=%r y=%r" % (c, x, y)
    assert record["status"] == "fail"
    assert record["witness"] == want
    assert hashlib.sha256(want.encode()).hexdigest()[:16] == \
        WITNESS_DIGESTS[name, pq]


# The sha256 of each witness below, first 16 hex digits, as the records
# wrote it when the g_{-1} directions and the g~_{-2} columns were drawn as
# Mats, with the claim made to fail on its first trial (the cone
# classification on its first sample) by the patch beside it.
CONTACT_WITNESSES = {
    "levi-closed-form": (
        ("82d33de02298f980", "6ea3446c885a893d"),
        (report, "bracket_gm1", lambda *args: Fraction(7))),
    "orthogonal-invariance": (
        ("516a3c334905f727", "b7b5018776b1e434"),
        (report, "orthogonal_residual", lambda *args: 1)),
    "determinant-scaling": (
        ("35369c6e093387c1", "cebcb03894a2f7a9"),
        (report, "scaling_residual", lambda *args: 1)),
    "pairing-compatibility": (
        ("fd219cf3f761def7", "a11f378b98fe851a"),
        (report, "levi_compat_residual", lambda *args: 1)),
    "rank-one-witness": (
        ("3337d9a7ceae746c", "9357942f971d32c9"),
        (report, "rank_one_witness", lambda x: (Fraction(0),) * 3)),
    "trilinear-symmetrization": (
        ("1ed13be845e05295", "4c7a730c4676cf72"),
        (extension, "fit_trilinear_constant", lambda sig: Fraction(0))),
    "tensor-dual-path": (
        ("05e38a4490ab5c31", "9f3bfdf112447b19"),
        (chains, "fit_pipeline_constant", lambda ev: Fraction(0))),
    "tensor-symmetry": (
        ("2f0794f26d594b3d", "c7f3801d16007889"),
        (chains, "s_tensor", lambda ev, a, b, c: a)),
    "chain-transversality": (
        ("5ec03e29437342cb", "2c0683211b8bd10a"),
        (chains, "chain_transversality", lambda *args: False)),
    "cone-classification": (
        ("3d6f2e14ceb0be86", "ef2a62c612aaa0d3"),
        (chains, "rank_one_by_S",
         lambda ev, xi: chains.segre_rank(xi) != 1)),
}
CONTACT_CASES = [(name, pq) for name in CONTACT_WITNESSES
                 for pq in ((2, 1), (2, 2))]


@pytest.mark.parametrize("name,pq", CONTACT_CASES,
                         ids=["%s-%d-%d" % (name, *pq)
                              for name, pq in CONTACT_CASES])
def test_contact_direction_witnesses_print_the_mat_views(monkeypatch, name,
                                                         pq):
    # every claim that draws a g_{-1} direction or a g~_{-2} column, made to
    # fail: the witness names the drawn IntMats by their Mat views, so its
    # text is the one the Mat draws gave
    digests, (owner, attr, patch) = CONTACT_WITNESSES[name]
    monkeypatch.setattr(owner, attr, patch)
    check, = [c for c in CHECKS if c.name == name]
    texts = [run_checks(Signature(*pq), random.Random(0), trials, [check])[0]
             for trials in (1, 5)]
    assert [r["status"] for r in texts] == ["fail", "fail"]
    witness = texts[1]["witness"]
    if check.draws is None:  # a trial loop: the first trial failed
        assert texts[0]["witness"] == witness
    assert "Mat([[Fraction(" in witness
    assert hashlib.sha256(witness.encode()).hexdigest()[:16] == \
        digests[pq == (2, 2)]


# ---------------------------------------------------------------------------
# the random streams, pinned record by record

# A digest of each suite's generator state after each of its records, at
# seed 0 with --trials 3. Every golden report passes, so the golden files
# cannot see a check that draws one value more or fewer; these can.
STREAMS = {
    (2, 1): {
        "algebra": "f2a71d4919 f2a71d4919 c76f925a4c 1f329b2642 be26a20868 "
                   "d4c66b82c3",
        "quaternion": "437044b56f f5f83c0689 a553354ef0 a553354ef0 "
                      "80484b587f",
        "extension": "4dc1114878 5c9ffd150a 76adfd5866 76adfd5866 "
                     "8b662827ae b137aaaadb",
        "normality": "e3572b4ce8 e3572b4ce8",
        "chains": "d7686489d2 d2975d3290 30c0d4ef4a f474844801 d926e0520c",
        "reconstruction": "11aa29d383 ee2e7281fe 4d543089bc 1a76b05bcb",
    },
    (2, 2): {
        "algebra": "f2a71d4919 f2a71d4919 47e24ef76f f9ebc79776 c8529b94b2 "
                   "ab56d3d958",
        "quaternion": "437044b56f 841c566c33 634dd5d100 634dd5d100 "
                      "3b5ded15e3",
        "extension": "fc47116e5d 1c915a904c 828ed61ed6 828ed61ed6 "
                     "e4f549f276 7a35f7ba3a",
        "normality": "e3572b4ce8 e3572b4ce8",
        "chains": "d7686489d2 20358ff89f 55ea6afa9a f2ef403781 0fcf005877",
        "reconstruction": "f2d1eec6a1 8a5835fc67 d3bbd5e4b4 76565eaf1d",
    },
}


@pytest.mark.parametrize("pq", sorted(STREAMS))
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_record_leaves_the_stream_where_it_was(pq, suite):
    seen = []

    def probe(sig, rng, trials):
        state = repr(rng.getstate()).encode()
        seen.append(hashlib.blake2b(state, digest_size=5).hexdigest())
        return True, None

    # a probe after each record, in one call, so shared draws stay shared
    checks = []
    for check in CHECKS:
        if check.suite == suite:
            checks += [check, Check(suite, "probe", "", lambda s, t: 1,
                                    probe)]
    rng = random.Random(0 ^ zlib.crc32(suite.encode("ascii")))
    records = run_checks(Signature(*pq), rng, 3, checks)[::2]
    for record, want, got in zip(records, STREAMS[pq][suite].split(), seen):
        assert got == want, "the stream moved at %s, %s %r" % (
            record["name"], suite, pq)
    assert len(seen) == len(records) == len(STREAMS[pq][suite].split())
    assert all(r["status"] == "pass" for r in records)
