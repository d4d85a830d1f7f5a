"""Traced repetition of one workload, run in a fresh interpreter.

    python3 perfbench/traced.py --root ROOT --workload NAME --seed N \
        --workdir DIR --summary PATH

Imports `liecontact` from ROOT/src, wraps the public functions the
per-layer metrics name, then runs the workload's invocations in process
through `liecontact.cli.main(argv)` with `--timings`. Nothing under `src/`
changes: the wrappers are installed from here, in every module namespace
that binds the wrapped function, so `from .linalg import invert` in another
module is traced as well.

Spans (name, start, end, parent) are kept in flat arrays while the workload
runs and written to DIR/spans.bin at the end: four native-endian arrays of
equal length, in order name id (int32), parent index (int32, -1 for none),
start and end (float64, seconds from time.perf_counter). The summary JSON
holds the span names and the per-span aggregates the driver reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from array import array
from fractions import Fraction

from workloads import WORKLOADS

# (span name, module, attribute path). Several attributes may share one
# span name; their calls are counted together.
TARGETS = [
    ("linalg.invert", "linalg", "invert"),
    ("linalg.rank_kernel", "linalg", "rank_kernel"),
    ("linalg.solve_linear", "linalg", "solve_linear"),
    ("linalg.det", "linalg", "det"),
    ("linalg.exp_nilpotent", "linalg", "exp_nilpotent"),
    ("so_contact.bracket", "so_contact", "bracket"),
    ("so_contact.SoElement.from_matrix", "so_contact",
     "SoElement.from_matrix"),
    ("so_contact.SoElement.assemble", "so_contact", "SoElement.assemble"),
    ("so_contact.structure_constants", "so_contact", "structure_constants"),
    ("so_contact.segre_rank", "so_contact", "segre_rank"),
    ("path_sl.sl_bracket", "path_sl", "sl_bracket"),
    ("path_sl.SlElement.grade_project", "path_sl", "SlElement.grade_project"),
    ("extension.alpha", "extension", "alpha"),
    ("extension.hat_lift", "extension", "hat_lift"),
    ("extension.psi_gq", "extension", "psi_gq"),
    ("extension.build_psi_cochain", "extension", "build_psi_cochain"),
    ("extension.psi_support_report", "extension", "psi_support_report"),
    ("extension.codifferential", "extension", "codifferential"),
    ("extension.psi_equivariance_check", "extension",
     "psi_equivariance_check"),
    ("extension.check_pair_conditions", "extension", "check_pair_conditions"),
    ("extension.psi_trilinear", "extension", "psi_trilinear"),
    ("extension.i_map", "extension", "i_map"),
    ("chains.chain_eval", "chains", "chain_eval"),
    ("chains.act", "chains", "act"),
    ("chains.ModelPoint", "chains", "ModelPoint.__init__"),
    ("chains.chain_transversality", "chains", "chain_transversality"),
    ("chains.s_tensor", "chains", "s_tensor"),
    ("chains.pipeline_s", "chains", "pipeline_s"),
    ("chains.rank_one_by_S", "chains", "rank_one_by_S"),
    ("chains.emit_trajectory", "chains", "emit_trajectory"),
    ("split_quat.rank_one_witness", "split_quat", "rank_one_witness"),
    ("split_quat.apply", "split_quat", "QuatStructureOnH.apply_i"),
    ("split_quat.apply", "split_quat", "QuatStructureOnH.apply_j"),
    ("split_quat.apply", "split_quat", "QuatStructureOnH.apply_k"),
    ("samplers.rand_oform", "samplers", "rand_oform"),
    ("samplers.rand_q_square", "samplers", "rand_q_square"),
    ("samplers.rand_opq", "samplers", "rand_opq"),
]
MATMUL = "linalg.matmul"


class Tracer:
    """In-memory span store. A span's index is fixed when it opens, so a
    child can name its parent before the parent closes."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # time inside a span spent by the tracer itself (matmul counters)
        self.excluded = array("d")
        self.stack = [-1]
        self.muladds = 0
        self.left_entries = 0
        self.left_nonzero = 0
        self.max_bits = 0

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self.stack
        names, parents = self.name, self.parent
        starts, ends, excluded = self.start, self.end, self.excluded

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def wrap_matmul(self, mat_cls):
        """Mat x Mat products only; scalar products pass straight through.
        Counters are taken after the product and their cost is excluded
        from the span's self time."""
        orig = mat_cls.__mul__
        nid = self.name_id(MATMUL)
        clock = time.perf_counter
        tracer = self
        stack = self.stack
        names, parents = self.name, self.parent
        starts, ends, excluded = self.start, self.end, self.excluded

        def traced_mul(a, b):
            if not isinstance(b, mat_cls):
                return orig(a, b)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = orig(a, b)
            finally:
                done = ends[idx] = clock()
                stack.pop()
            tracer.count_product(a, b, out)
            ends[idx] = clock()
            excluded[idx] = ends[idx] - done
            return out

        mat_cls.__mul__ = traced_mul

    def count_product(self, a, b, out):
        self.muladds += a.rows * a.cols * b.cols
        self.left_entries += a.rows * a.cols
        self.left_nonzero += sum(1 for row in a.data for x in row if x != 0)
        bits = self.max_bits
        for row in out.data:
            for x in row:
                if type(x) is Fraction:
                    b = x.numerator.bit_length() + x.denominator.bit_length()
                    if b > bits:
                        bits = b
        self.max_bits = bits

    def aggregate(self):
        """Per span name: calls and self time (span time minus the time its
        child spans cover and the tracer's own cost)."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            s["self_s"] += (self.end[i] - self.start[i] - child[i]
                            - self.excluded[i])
        return stats

    def write_spans(self, path):
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _resolve(module, path):
    """(owner, attribute, raw value) for "func" or "Class.method"."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def install(tracer, package):
    """Wrap every target in every `liecontact` module that binds it. Fails
    when a target is missing, so a rename cannot blind the trace."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package.__name__
                                     or name.startswith(package.__name__
                                                        + "."))]
    for span, modname, path in TARGETS:
        module = sys.modules["%s.%s" % (package.__name__, modname)]
        owner, attr, raw = _resolve(module, path)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(tracer.wrap(span, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(span, raw))
            continue
        wrapped = tracer.wrap(span, raw)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, name, wrapped)
    tracer.wrap_matmul(sys.modules[package.__name__ + ".linalg"].Mat)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--summary", required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import liecontact
    import liecontact.cli
    if not os.path.abspath(liecontact.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise SystemExit("imported liecontact from %s, not from %s"
                         % (liecontact.__file__, src))
    tracer = Tracer()
    install(tracer, liecontact)

    exits = []
    for i, inv in enumerate(WORKLOADS[args.workload]):
        out = os.path.join(args.workdir, "out-%d" % i)
        try:
            code = liecontact.cli.main(inv.argv(args.seed, out, timings=True))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        exits.append(code)
    tracer.write_spans(os.path.join(args.workdir, "spans.bin"))
    summary = {
        "exits": exits,
        "spans": tracer.aggregate(),
        "span_count": len(tracer.start),
        "names": tracer.names,
        "matmul": {
            "muladds": tracer.muladds,
            "left_entries": tracer.left_entries,
            "left_nonzero": tracer.left_nonzero,
            "max_bits": tracer.max_bits,
        },
    }
    with open(args.summary, "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
