"""Workload definitions shared by the benchmark driver and the traced child.

A workload is a fixed list of `liecontact` CLI invocations. The benchmark
adds `--seed` to every one and an output path (`--out` for a report,
`--export-chain` for a CSV), so the same seed always gives the same inputs
and the same output bytes.
"""

from __future__ import annotations

SIGNATURES = ((2, 1), (3, 0), (2, 2))


class Invocation:
    """One CLI call. `kind` is "report" (a JSON report written with --out)
    or "csv" (a chain trajectory written with --export-chain)."""

    __slots__ = ("label", "args", "kind")

    def __init__(self, label, args, kind="report"):
        self.label = label
        self.args = list(args)
        self.kind = kind

    def argv(self, seed, out_path, timings=False):
        flag = "--out" if self.kind == "report" else "--export-chain"
        argv = self.args + ["--seed", str(seed), flag, out_path]
        return argv + ["--timings"] if timings else argv


def _suites(names):
    return [a for name in names for a in ("--suite", name)]


def _sig(p, q):
    return ["--p", str(p), "--q", str(q)]


# One invocation per suite, so the run can calibrate between them; each
# suite seeds its own random stream, so the records equal those of one
# combined invocation.
OBSTRUCTION = [
    Invocation("%s@2,2" % suite,
               _sig(2, 2) + _suites((suite,)) + ["--trials", "10"])
    for suite in ("extension", "normality")
]

SAMPLED = [
    Invocation("algebra+quaternion+chains+reconstruction@%d,%d" % pq,
               _sig(*pq) + _suites(("algebra", "quaternion", "chains",
                                    "reconstruction"))
               + ["--trials", "8"])
    for pq in SIGNATURES
] + [
    Invocation("export-chain@2,2",
               _sig(2, 2) + ["--chain-g", "random", "--steps", "129"],
               kind="csv"),
]

SCALE_N6 = [
    Invocation("normality@3,3", _sig(3, 3) + _suites(("normality",))),
]

WORKLOADS = {
    "obstruction": OBSTRUCTION,
    "sampled": SAMPLED,
    "scale-n6": SCALE_N6,
}

# Spans the prediction table (perfbench/README.md) says each workload must
# call. A traced run that records zero calls for one of them fails, so a
# refactor that moves a function out from under its wrapper cannot blind
# the per-layer numbers silently.
REQUIRED_SPANS = {
    "obstruction": (
        "linalg.matmul", "linalg.invert", "so_contact.bracket",
        "so_contact.SoElement.from_matrix", "extension.psi_gq",
        "extension.hat_lift", "extension.build_psi_cochain",
        "extension.psi_support_report", "extension.codifferential",
    ),
    "sampled": (
        "linalg.matmul", "linalg.invert", "linalg.rank_kernel",
        "linalg.solve_linear", "linalg.det",
        "so_contact.structure_constants", "chains.chain_eval",
        "chains.act", "chains.ModelPoint", "chains.pipeline_s",
        "chains.emit_trajectory", "extension.psi_gq",
    ),
    "scale-n6": (
        "linalg.matmul", "so_contact.bracket",
        "so_contact.SoElement.from_matrix", "extension.psi_gq",
        "extension.hat_lift", "extension.build_psi_cochain",
        "extension.codifferential",
    ),
}
