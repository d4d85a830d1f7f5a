"""liecontact benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every invocation of the
`liecontact` CLI runs in a fresh interpreter with PYTHONPATH=src, one at a
time, so each pays what a CLI user pays: interpreter start, import, and the
signature-keyed caches filling from empty.

--trace 0 measures the end-to-end metrics: repetitions of the workload
(all of its invocations back to back) for about S seconds, at least two so
output bytes can be compared between them, plus the import time of a fresh
interpreter. Times are calibrated against a fixed loop of Fraction
arithmetic timed between invocations, because the machine's speed drifts
while other tenants load it (perfbench/README.md). --trace 1 runs one
untraced repetition and two traced ones (perfbench/traced.py) and reports
the per-layer metrics.

Build outputs and work files go to .bench_build/ in the checkout. The last
line of standard output is the JSON result; the lines before it are a
human-readable table and one output digest per invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import REQUIRED_SPANS, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
# Every child must end before this many seconds after start, so a run
# always finishes within its 180 s limit.
DEADLINE_S = 170.0
MIN_REPS = 2
SETUP_SAMPLES = 5
# calibrate() times a loop of CALIB_TERMS Fraction products. CALIB_REF_S is
# its time on the reference machine (the 2-core sandbox of
# perfbench/README.md) when no other tenant slows that machine down.
CALIB_TERMS = 14000
CALIB_REF_S = 0.03
# Per-layer metrics printed in the JSON result with --trace 1: the spans
# that fire on every workload, so none of them is ever 0. The table printed
# above the result lists every span, including those that fire on only
# some workloads.
LAYER_SPANS = (
    "linalg.invert", "so_contact.bracket", "so_contact.SoElement.from_matrix",
    "so_contact.SoElement.assemble", "path_sl.sl_bracket",
    "extension.alpha", "extension.hat_lift", "extension.psi_gq",
)


class Child:
    """Outcome of one child process."""

    __slots__ = ("code", "wall_s", "rss_mb")

    def __init__(self, code, wall_s, rss_mb):
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb


def calibrate():
    """The machine's current speed: the fastest of three runs of a fixed
    loop of Fraction arithmetic, the work liecontact spends its time on."""
    best = math.inf
    step = Fraction(1, 3)
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(CALIB_TERMS):
            acc += step * i
        best = min(best, time.perf_counter() - start)
    return best


class Runner:
    def __init__(self, workdir):
        self.workdir = workdir
        self.started = time.perf_counter()
        self.speed = calibrate()
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        PYTHONPYCACHEPREFIX=os.path.join(BUILD, "pycache"))
        # The bytecode cache lives under .bench_build and is written on the
        # first import, whatever the caller's environment says, so setup_s
        # always measures a warm cache.
        for var in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)

    def elapsed(self):
        return time.perf_counter() - self.started

    def child(self, argv, stdout=subprocess.DEVNULL):
        """Run argv to completion and return its exit code, wall time and
        max RSS. The child is killed if it would pass the run deadline."""
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        with open(os.path.join(self.workdir, "stderr.txt"), "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.workdir,
                                    stdin=subprocess.DEVNULL, stdout=stdout,
                                    stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, end - start, usage.ru_maxrss / 1024.0)

    def recalibrate(self):
        """Factor that rescales a time measured since the last calibration
        to the reference speed, from the calibrations on both sides."""
        now = calibrate()
        factor = CALIB_REF_S / ((self.speed + now) / 2)
        self.speed = now
        return factor

    def warm_up(self):
        """Compile the bytecode cache and check that the package comes from
        this checkout."""
        path = os.path.join(self.workdir, "import-path.txt")
        with open(path, "wb") as out:
            res = self.child([sys.executable, "-c",
                              "import liecontact.cli; "
                              "print(liecontact.cli.__file__)"], stdout=out)
        with open(path) as fh:
            where = os.path.abspath(fh.read().strip())
        if res.code != 0 or not where.startswith(SRC + os.sep):
            raise SystemExit("perfbench: cannot import liecontact.cli from %s"
                             % SRC)

    def setup_times(self):
        """Wall times of `import liecontact.cli` in fresh interpreters, raw
        and calibrated."""
        self.recalibrate()
        raw = [self.child([sys.executable, "-c",
                           "import liecontact.cli"]).wall_s
               for _ in range(SETUP_SAMPLES)]
        factor = self.recalibrate()
        return raw, [t * factor for t in raw]

    def repetition(self, invocations, seed):
        """All invocations back to back, calibrating between two. Returns
        the rep's raw and calibrated wall time (sums over its invocations)
        and one (child, output bytes) per invocation."""
        self.recalibrate()
        raw = cal = 0.0
        results = []
        for i, inv in enumerate(invocations):
            out = os.path.join(self.workdir, "out-%d" % i)
            if os.path.exists(out):
                os.remove(out)
            res = self.child([sys.executable, "-m", "liecontact"]
                             + inv.argv(seed, out))
            raw += res.wall_s
            cal += res.wall_s * self.recalibrate()
            results.append((res, read_bytes(out)))
        return raw, cal, results


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16] if data is not None else "-"


def check_output(inv, seed, code, data):
    """(attempted, failed) operations for one invocation's output. A report
    record is one operation; a CSV export is one."""
    if inv.kind == "csv":
        return 1, int(code != 0 or not valid_csv(inv, data))
    try:
        report = json.loads(data)
        records = report["records"]
    except (TypeError, ValueError, KeyError):
        return 1, 1
    attempted = max(1, len(records))
    header_ok = (report.get("seed") == seed
                 and ["--p", str(report.get("p")), "--q",
                      str(report.get("q"))] == inv.args[:4])
    if code != 0 or not header_ok or not records:
        return attempted, attempted
    return attempted, sum(1 for r in records if r.get("status") != "pass")


def valid_csv(inv, data):
    """Header plus --steps rows of finite numbers, each row as wide as the
    header."""
    if not data:
        return False
    lines = data.decode("ascii", "replace").splitlines()
    steps = int(inv.args[inv.args.index("--steps") + 1])
    width = len(lines[0].split(","))
    if len(lines) != steps + 1:
        return False
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            return False
        try:
            if not all(math.isfinite(float(c)) for c in cells):
                return False
        except ValueError:
            return False
    return True


def tally(invocations, seed, reps):
    """(attempted, failed) over all repetitions. An invocation whose bytes
    differ from the first repetition's fails all of its operations."""
    first = [data for _, data in reps[0][-1]]
    attempted = failed = 0
    for *_, results in reps:
        for inv, (res, data), ref in zip(invocations, results, first):
            a, f = check_output(inv, seed, res.code, data)
            if data != ref:
                f = a
            attempted += a
            failed += f
    return attempted, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_digests(name, invocations, results):
    for inv, (_, data) in zip(invocations, results):
        print("digest %s %s %s" % (name, inv.label, digest(data)))


def end_to_end(runner, name, seed, seconds):
    """Repeat the workload for about `seconds`, at least MIN_REPS times.
    Import times are sampled in a block before each repetition, so they
    spread over the run as the repetitions do."""
    invocations = WORKLOADS[name]
    measure_start = time.perf_counter()
    setup_raw, setup_cal, reps = [], [], []
    while True:
        raw, cal = runner.setup_times()
        setup_raw += raw
        setup_cal += cal
        reps.append(runner.repetition(invocations, seed))
        walls = [rep[0] for rep in reps]
        spent = time.perf_counter() - measure_start
        if len(reps) >= MIN_REPS and spent + statistics.median(walls) > seconds:
            break
        if runner.elapsed() + 2 * max(walls) > DEADLINE_S:
            break
    cal_walls = [rep[1] for rep in reps]
    attempted, failed = tally(invocations, seed, reps)
    rss = max(res.rss_mb for *_, results in reps for res, _ in results)
    print("workload %s seed %d: %d repetitions of %d invocations"
          % (name, seed, len(reps), len(invocations)))
    for label, cal, raw in (("wall_s ", cal_walls, walls),
                            ("setup_s", setup_cal, setup_raw)):
        print("%s  calibrated %.4f s (quartiles %.4f..%.4f); raw %.4f s "
              "(quartiles %.4f..%.4f); median of %d"
              % (label, statistics.median(cal), *quartiles(cal),
                 statistics.median(raw), *quartiles(raw), len(raw)))
    print("peak_rss_mb  %.1f MB  (largest max-RSS of any invocation)" % rss)
    print("failed_frac  %.4f     (%d of %d operations)"
          % (failed / attempted, failed, attempted))
    for i, (raw, cal, results) in enumerate(reps):
        print("rep %d raw %.4f s calibrated %.4f s: %s" % (
            i, raw, cal, " ".join("%.4f" % res.wall_s for res, _ in results)))
    print_digests(name, invocations, reps[0][-1])
    metrics = {
        "wall_s": metric(statistics.median(cal_walls), "s"),
        "setup_s": metric(statistics.median(setup_cal), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return attempted, failed, metrics


def normalized_report(data):
    """Report bytes with every wall_time set back to null, formatted as the
    CLI formats them."""
    try:
        report = json.loads(data)
        for record in report["records"]:
            record["wall_time"] = None
    except (TypeError, ValueError, KeyError):
        return None
    return (json.dumps(report, indent=2) + "\n").encode()


def traced_rep(runner, name, seed, index):
    workdir = os.path.join(runner.workdir, "traced-%d" % index)
    os.makedirs(workdir)
    summary_path = os.path.join(workdir, "summary.json")
    res = runner.child([sys.executable, os.path.join(HERE, "traced.py"),
                        "--root", ROOT, "--workload", name,
                        "--seed", str(seed), "--workdir", workdir,
                        "--summary", summary_path])
    if res.code != 0:
        raise SystemExit("perfbench: traced repetition exited %d; see %s"
                         % (res.code, os.path.join(runner.workdir,
                                                   "stderr.txt")))
    with open(summary_path) as fh:
        summary = json.load(fh)
    outputs = [read_bytes(os.path.join(workdir, "out-%d" % i))
               for i in range(len(WORKLOADS[name]))]
    return res.wall_s, summary, outputs


def counts(summary):
    return ({k: v["calls"] for k, v in summary["spans"].items()},
            summary["matmul"], summary["exits"])


def per_layer(runner, name, seed):
    invocations = WORKLOADS[name]
    untraced_rep = runner.repetition(invocations, seed)
    untraced_wall, untraced = untraced_rep[0], untraced_rep[-1]
    traced = [traced_rep(runner, name, seed, i) for i in range(2)]

    attempted, failed = tally(invocations, seed, [untraced_rep])
    for _, summary, outputs in traced:
        for inv, (_, ref), data, code in zip(invocations, untraced, outputs,
                                             summary["exits"]):
            a, _ = check_output(inv, seed, code, data)
            same = (normalized_report(data) == ref if inv.kind == "report"
                    else data == ref)
            attempted += a
            failed += 0 if same and code == 0 else a

    if counts(traced[0][1]) != counts(traced[1][1]):
        raise SystemExit("perfbench: span counts differ between two traced "
                         "repetitions at seed %d" % seed)
    summaries = [summary for _, summary, _ in traced]
    spans = summaries[0]["spans"]
    silent = [s for s in REQUIRED_SPANS[name] if spans.get(s, {}).get(
        "calls", 0) == 0]
    if silent:
        raise SystemExit("perfbench: no calls recorded on %s for %s"
                         % (name, ", ".join(silent)))

    def self_s(span):
        return statistics.median(s["spans"][span]["self_s"]
                                 for s in summaries)

    mm = summaries[0]["matmul"]
    table = {}
    for span in sorted(spans):
        table[span + ".calls"] = metric(spans[span]["calls"], "count")
        table[span + ".self_s"] = metric(self_s(span), "s")
    table["linalg.matmul.muladds"] = metric(mm["muladds"], "count")
    table["linalg.matmul.nonzero_frac"] = metric(
        mm["left_nonzero"] / max(1, mm["left_entries"]), "fraction")
    table["linalg.max_bits"] = metric(mm["max_bits"], "bits")
    for inv, data in zip(invocations, traced[0][2]):
        if inv.kind != "report" or data is None:
            continue
        for record in json.loads(data)["records"]:
            key = "report.record_s.%s" % record["name"]
            old = table.get(key, metric(0.0, "s"))["value"]
            table[key] = metric(old + record["wall_time"], "s")
    table["report.records_s"] = metric(
        sum(m["value"] for k, m in table.items()
            if k.startswith("report.record_s.")), "s")
    traced_wall = statistics.median(wall for wall, _, _ in traced)
    table["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")

    print("workload %s seed %d: 1 untraced and 2 traced repetitions; "
          "%d spans per traced repetition"
          % (name, seed, summaries[0]["span_count"]))
    print("untraced wall_s %.4f s, traced wall_s %.4f s"
          % (untraced_wall, traced_wall))
    for key, m in table.items():
        value = m["value"]
        text = "%d" % value if isinstance(value, int) else "%.6f" % value
        print("%-46s %14s %s" % (key, text, m["unit"]))
    print_digests(name, invocations, untraced)

    keys = ["linalg.matmul.calls", "linalg.matmul.self_s",
            "linalg.matmul.muladds", "linalg.matmul.nonzero_frac",
            "linalg.max_bits", "report.records_s"]
    for span in LAYER_SPANS:
        keys += [span + ".calls", span + ".self_s"]
    return attempted, failed, {k: table[k] for k in keys}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "liecontact", "cli.py")):
        print("perfbench: no liecontact sources under %s; run from the root "
              "of a source checkout" % SRC, file=sys.stderr)
        return 2
    workdir = os.path.join(BUILD, "perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir)
    runner.warm_up()
    if args.trace:
        attempted, failed, metrics = per_layer(runner, args.workload,
                                               args.seed)
    else:
        attempted, failed, metrics = end_to_end(runner, args.workload,
                                                args.seed, args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
