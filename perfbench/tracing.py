"""Span recording for the benchmark's traced passes.

A span is one call into a layer of qhspace, recorded from the benchmark's
own files: its name (``<module>.<function>``), start and end on the
system-wide monotonic clock, the span that was open when it started, and the
case it belongs to.  Spans stay in memory and are written out when the pass
ends.  The untraced passes use ``NullTracer``, which makes the same calls and
records nothing.
"""

from __future__ import annotations

import time
import tracemalloc

MB = float(1 << 20)

# Every span the benchmark records, in pipeline order.  Each one becomes
# three per-layer metrics: self time, number of calls and tracemalloc peak.
SPAN_NAMES = (
    "grouprep.extract_irreps",
    "tensorcat.from_group",
    "tensorcat.cocycle",
    "tensorcat.from_pointed",
    "tensorcat.verify_presentation",
    "modcat.module_build",
    "modcat.dims",
    "modcat.validate_module",
    "reconstruct.structure_tensor",
    "reconstruct.star_matrix",
    "reconstruct.verify_algebra",
    "reconstruct.cp_certificate",
    "reconstruct.verify_bimodule",
    "reconstruct.block_consistency",
    "reconstruct.restriction_morphism",
    "reconstruct.validate_morphism",
    "reconstruct.verify_algebra_map",
    "verify.run_suite",
    "project_io.load_project",
    "cli.import",
    "cli.main",
    "cli.exit",
)

# Work counts, each summed over the cases of a pass except the sizes, which
# are maxima.
SIZE_COUNTS = ("size.L", "size.J", "size.n_max", "size.block_dim_max")
WORK_COUNTS = (
    "modcat.mor_blocks",
    "modcat.coherence_blocks",
    "reconstruct.tensor_nnz",
    "reconstruct.assoc_bytes_computed",
    "certificate.checks",
)


class NullTracer:
    """Makes every call untouched; used for the measured passes."""

    traced = False
    case = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def force(self, obj, *tensor_attrs):
        pass

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    """Records spans in memory; with ``memory`` also a tracemalloc peak each.

    The peak of a span is the highest traced memory while it is open, less
    the traced memory when it opened.  The global peak is reset when a span
    opens, so each open span takes the peak seen so far before the reset.
    """

    traced = True

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.case = None
        self.counts: dict[str, float] = {name: 0 for name in WORK_COUNTS}
        self.algebras: list = []  # every algebra run_suite or the CLI built
        self.cli_sizes: list = []  # module sizes reported by traced qhs processes

    def open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "case": self.case,
        }
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1]["_peak"] = max(self.stack[-1]["_peak"], peak)
            tracemalloc.reset_peak()
            rec["_base"] = rec["_peak"] = cur
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        if self.memory:
            rec["_peak"] = max(rec["_peak"], tracemalloc.get_traced_memory()[1])
            rec["peak_mb"] = (rec["_peak"] - rec["_base"]) / MB
        self.stack.pop()
        if self.memory and self.stack:
            self.stack[-1]["_peak"] = max(self.stack[-1]["_peak"], rec["_peak"])
        rec["end"] = time.monotonic()

    def adopt(self, records: list[dict]) -> None:
        """Append span records made in another process to the current case."""
        offset = len(self.spans)
        for rec in records:
            parent = None if rec["parent"] is None else rec["parent"] + offset
            self.spans.append(dict(rec, id=rec["id"] + offset, parent=parent, case=self.case))

    def call(self, name, fn, *args, **kwargs):
        rec = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(rec)

    def force(self, obj, *tensor_attrs):
        """Compute the lazy structure tensors and star matrix in their own spans.

        This is the work the verifiers would trigger on first use, done right
        after the algebra or bimodule is built so that it is timed apart.
        """
        for attr in tensor_attrs:
            self.call("reconstruct.structure_tensor", getattr, obj, attr)
        self.call("reconstruct.star_matrix", getattr, obj, "star_mat")

    def count(self, name, value):
        self.counts[name] += value

    def wrap(self, module, attr: str, name: str | None, hook=None) -> None:
        """Replace ``module.attr`` by a call in span ``name`` (none if None).

        ``hook(result, *args)`` runs after the call, outside its span.
        """
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            out = orig(*args, **kwargs) if name is None else self.call(name, orig, *args, **kwargs)
            if hook is not None:
                hook(out, *args)
            return out

        setattr(module, attr, traced)

    def on_algebra(self, alg, *args) -> None:
        self.force(alg, "tensor")
        self.algebras.append(alg)

    def on_verify_algebra(self, cert, alg, *args) -> None:
        self.count("reconstruct.assoc_bytes_computed", assoc_bytes(alg.dim, alg.dim, alg.dim, alg.dim))

    def wrap_suite(self, verify_module) -> None:
        """Trace the layers ``run_suite`` calls, through the names its module binds."""
        self.wrap(verify_module, "verify_presentation", "tensorcat.verify_presentation")
        self.wrap(verify_module, "validate_module", "modcat.validate_module")
        self.wrap(verify_module, "build_algebra", None, hook=self.on_algebra)
        self.wrap(verify_module, "verify_algebra", "reconstruct.verify_algebra",
                  hook=self.on_verify_algebra)
        self.wrap(verify_module, "cp_certificate", "reconstruct.cp_certificate")

    def records(self) -> list[dict]:
        """Span records without the private memory bookkeeping."""
        return [{k: v for k, v in rec.items() if not k.startswith("_")} for rec in self.spans]


def assoc_bytes(p: int, q: int, r: int, s: int) -> int:
    """Bytes of the two complex128 (p, q, r, s) tensors one associativity check builds."""
    return 2 * 16 * p * q * r * s


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration less the part of it that its child spans cover."""
    out = {rec["id"]: rec["end"] - rec["start"] for rec in spans}
    for rec in spans:
        if rec["parent"] is not None:
            out[rec["parent"]] -= rec["end"] - rec["start"]
    return out
