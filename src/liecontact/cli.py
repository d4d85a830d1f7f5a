"""Command-line front end: runs verification suites against a chosen
signature and exports chain trajectories as CSV."""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys

from . import samplers
from .chains import emit_trajectory
from .linalg import rat
from .report import SUITE_NAMES, SuiteConfig, run
from .so_contact import Signature


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecontact",
        description="Exact verification suites for the contact-graded "
                    "orthogonal algebra, its sl embedding and the chain "
                    "geometry of the homogeneous model.")
    parser.add_argument("--p", type=int, required=True,
                        help="positive part of the signature")
    parser.add_argument("--q", type=int, required=True,
                        help="negative part of the signature")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized checks (default 0)")
    parser.add_argument("--trials", type=int, default=100,
                        help="trial count per randomized check (default 100)")
    parser.add_argument("--suite", action="append", choices=SUITE_NAMES,
                        metavar="NAME",
                        help="suite to run (repeatable); one of %s"
                             % ", ".join(SUITE_NAMES))
    parser.add_argument("--out", default=None,
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--timings", action="store_true",
                        help="fill wall_time fields (breaks byte-identical "
                             "reports)")
    parser.add_argument("--export-chain", metavar="PATH", default=None,
                        help="write a sampled chain trajectory CSV")
    parser.add_argument("--chain-g", choices=("identity", "random"),
                        default="identity",
                        help="frame for the exported chain (default "
                             "identity)")
    parser.add_argument("--t-min", default="-1",
                        help="rational start of the parameter range")
    parser.add_argument("--t-max", default="1",
                        help="rational end of the parameter range")
    parser.add_argument("--steps", type=int, default=33,
                        help="number of sample rows (default 33)")
    return parser


def _write_chain_csv(path: str, sig: Signature, args, t_min, t_max) -> None:
    g = None
    if args.chain_g == "random":
        g = samplers.rand_oform(sig, random.Random(args.seed))
    rows = emit_trajectory(sig, g, t_min, t_max, args.steps)
    header = ["t"]
    for i in range(sig.n + 4):
        for j in range(2):
            header.append("c%d%d" % (i + 1, j + 1))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) for v in row])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.suite and args.export_chain is None:
        parser.error("nothing to do: pass --suite at least once or "
                     "--export-chain")
    try:
        sig = Signature(args.p, args.q)
    except ValueError as exc:
        parser.error(str(exc))
    # usage errors come before any suite runs or any file is written
    for flag, path in (("--out", args.out),
                       ("--export-chain", args.export_chain)):
        folder = os.path.dirname(path) if path else ""
        if folder and not os.path.isdir(folder):
            parser.error("%s: directory %s does not exist" % (flag, folder))
        if path and os.path.isdir(path):
            parser.error("%s: %s is a directory" % (flag, path))
    if (args.out and args.export_chain
            and os.path.realpath(args.out)
            == os.path.realpath(args.export_chain)):
        parser.error("--out and --export-chain name the same file %s"
                     % args.export_chain)
    if args.export_chain is not None:
        if args.steps < 2:
            parser.error("steps must be at least 2")
        try:
            t_min, t_max = rat(args.t_min), rat(args.t_max)
        except (ValueError, ZeroDivisionError) as exc:
            parser.error("--t-min and --t-max must be rationals p/q with "
                         "q != 0: %s" % exc)
        if t_min >= t_max:
            parser.error("--t-min must be less than --t-max, got %s and %s"
                         % (t_min, t_max))
    ok = True
    if args.suite:
        try:
            config = SuiteConfig(args.p, args.q, seed=args.seed,
                                 trials=args.trials,
                                 suites=tuple(args.suite),
                                 timings=args.timings)
        except ValueError as exc:
            parser.error(str(exc))
        report = run(config)
        text = json.dumps(report, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        ok = report["status"] == "pass"
    if args.export_chain is not None:
        _write_chain_csv(args.export_chain, sig, args, t_min, t_max)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
