"""Alternating benchmark pairs: a parent commit against the working tree.

    python tests/bench_pairs.py --rev HEAD --workload obstruction \
        --seeds 401-410 --seconds 55 --round 2 --out BENCH_23.json
    python tests/bench_pairs.py --summary BENCH_23.json

The first form copies the parent (`git archive <rev>`) and the working
tree's `src/` and `perfbench/` into two sibling directories of equal path
length under --workdir, then runs `perfbench/run.py` once per seed on each
side, the parent first on odd pairs and the change first on even ones. Each
run's last line, the JSON result, is appended verbatim to --out as one line
{"side", "workload", "seed", "round", "pair", "trace", "seconds",
"result"}; a new file first gets a header line naming the command, the
commits and the machine. --trace 1 adds one traced run per side at seed 0.
Then, as the second form does for a whole file, it prints per round,
workload and metric the medians and quartiles of both sides, the median of
the paired differences and the pairs the change won (a lower value wins).

Only the standard library and git are needed; nothing under perfbench/
changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seeds(text):
    """'401-410' or '1,5,9' as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def checkouts(rev, workdir):
    """{side: directory}: the parent by git archive, the change as copies of
    the working tree's src/ and perfbench/."""
    dirs = {side: Path(workdir) / side for side in SIDES}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=tar,
                       check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dirs["parent"])
    skip = shutil.ignore_patterns("__pycache__", ".bench_build")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dirs["change"] / part, ignore=skip)
    return dirs


def run(directory, workload, seed, seconds, trace):
    """The JSON result line of one perfbench run in directory."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=directory, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(lines):
    """Print, per round, workload and metric of the untraced lines, both
    sides' medians and quartiles, the median paired difference in percent
    of the parent and the pairs the change won."""
    runs = {}
    for line in lines:
        if line.get("trace") != 0:
            continue
        key = (line["round"], line["workload"])
        runs.setdefault(key, {}).setdefault(line["pair"], {})[
            line["side"]] = line["result"]["metrics"]
    for (rnd, workload), pairs in sorted(runs.items()):
        done = [p for p in pairs.values() if len(p) == 2]
        print("round %s, %s: %d pairs" % (rnd, workload, len(done)))
        for metric in done[0]["parent"] if done else ():
            parent = [p["parent"][metric]["value"] for p in done]
            change = [p["change"][metric]["value"] for p in done]
            (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
            diffs = [100 * (c - p) / p for p, c in zip(parent, change) if p]
            won = sum(c < p for p, c in zip(parent, change))
            print("  %-12s parent %.4f [%.4f..%.4f]  change %.4f "
                  "[%.4f..%.4f]  paired %+.1f%%  won %d of %d"
                  % (metric, statistics.median(parent), p1, p3,
                     statistics.median(change), c1, c3,
                     statistics.median(diffs) if diffs else 0.0, won,
                     len(done)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary", help="only summarize this file")
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", type=seeds, default=[0])
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--round", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--what", default="",
                        help="what the pairs compare, for a new file's header")
    parser.add_argument("--workdir",
                        default=os.path.join(tempfile.gettempdir(),
                                             "bench_pairs"))
    args = parser.parse_args()
    if args.summary:
        with open(args.summary) as f:
            summarize([json.loads(line) for line in f][1:])
        return 0
    if not (args.out and args.workload):
        parser.error("--out and --workload are needed to run pairs")

    dirs = checkouts(args.rev, args.workdir)
    rev = subprocess.run(["git", "rev-parse", "--short", args.rev], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip()
    if not os.path.exists(args.out):
        with open(args.out, "w") as f:
            f.write(json.dumps({
                "what": args.what,
                "command": "python3 perfbench/run.py --workload <workload> "
                           "--seed <seed> --seconds <seconds> --trace "
                           "<trace>",
                "parent": rev, "change": "the working tree on top of it",
                "machine": "%s, %d CPUs, Python %s" % (
                    platform.machine(), os.cpu_count(),
                    platform.python_version()),
                "fields": "side, workload, seed, round, pair, trace, "
                          "seconds, result (run.py's last line, verbatim)",
            }) + "\n")
    lines = []
    with open(args.out, "a") as f:
        for workload in args.workload:
            plan = [(0, pair, seed, args.seconds)
                    for pair, seed in enumerate(args.seeds, 1)]
            if args.trace:
                plan.append((1, 0, 0, 1))
            for trace, pair, seed, seconds in plan:
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    line = {"side": side, "workload": workload, "seed": seed,
                            "round": args.round, "pair": pair,
                            "trace": trace, "seconds": seconds,
                            "result": run(dirs[side], workload, seed,
                                          seconds, trace)}
                    f.write(json.dumps(line) + "\n")
                    f.flush()
                    lines.append(line)
                    print("%s %s seed %d: wall_s %s" % (
                        side, workload, seed,
                        line["result"]["metrics"].get(
                            "wall_s", {}).get("value")), flush=True)
    summarize(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
