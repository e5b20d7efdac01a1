"""In-memory span tracing of kronjord, applied from outside the package.

Every traced function is replaced, for the duration of a traced pass, in
each ``kronjord`` module namespace that holds it, so a caller that did
``from .exactmat import sparse_int_echelon`` sees the wrapper as well.
Methods are patched on their class.  A name listed in ``TARGETS`` that no
longer exists is recorded as absent; the layer metrics built from it are
then left out of the report instead of failing the run.

A span is (name, start, end, parent, op): spans of one benchmark
operation share ``op``.  Counters that are read from arguments and
results are computed inside the span they belong to, so the tracing cost
falls on the traced call and not on its caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Optional


def _echelon_counts(args, kwargs, res) -> dict:
    rows, ncols = args[0], args[1]
    nnz = 0
    bits = 0
    for row in rows:
        nnz += len(row)
        for v in row.values():
            b = abs(v).bit_length()
            if b > bits:
                bits = b
    for _, row in res:
        for v in row.values():
            b = abs(v).bit_length()
            if b > bits:
                bits = b
    return {"rows": sum(1 for r in rows if r), "cols": ncols, "nnz": nnz,
            "pivots": len(res), "max_coeff_bits": bits}


def _dense_counts(args, kwargs, res) -> dict:
    rows, ncols = args[0], args[1]
    return {"cells": len(rows) * ncols}


def _hom_counts(args, kwargs, res) -> dict:
    m, n = args[0], args[1]
    aM, bM = m.dim
    aN, bN = n.dim
    out = {"unknowns": aN * aM + bN * bM, "equations": m.r * bN * aM}
    if m is n:
        out["end_dim"] = res.dim
    return out


def _tree_counts(args, kwargs, res) -> dict:
    return {"tree_vertices": len(res.dims)}


# (span name, module, attribute path, counter hook).  The wrapper turns the
# row iterable of the spans in _MATERIALISE into a list before the call, so
# their hooks can read it after the callee has consumed it.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("exactmat.sparse_echelon", "kronjord.exactmat", "sparse_int_echelon", _echelon_counts),
    ("exactmat.dense_gf", "kronjord.exactmat", "_dense_rref", _dense_counts),
    ("exactmat.rank", "kronjord.exactmat", "ExactMatrix.rank", None),
    ("exactmat.solve", "kronjord.exactmat", "ExactMatrix.solve", None),
    ("exactmat.matmul", "kronjord.exactmat", "ExactMatrix.__matmul__", None),
    ("kronecker.pencil", "kronjord.kronecker", "pencil", None),
    ("kronecker.generic_rank", "kronjord.kronecker", "generic_rank", None),
    ("sampled.cjt", "kronjord.kronecker", "is_constant_jordan_type", None),
    ("sampled.ekp", "kronjord.verify", "ekp_sample_check", None),
    ("sampled.eip", "kronjord.verify", "eip_sample_check", None),
    ("sampled.restriction", "kronjord.verify", "restriction_check", None),
    ("verify.hom_space", "kronjord.verify", "hom_space", _hom_counts),
    ("verify.end_is_local", "kronjord.verify", "end_is_local", None),
    ("verify.is_brick", "kronjord.verify", "is_brick", None),
    ("verify.ext_dim", "kronjord.verify", "ext_dim", None),
    ("cover.build", "kronjord.cover", "build_source_regular", None),
    ("cover.build", "kronjord.cover", "build_root_vector", None),
    ("cover.build", "kronjord.cover", "build_indecomposable_tree_rep", _tree_counts),
    ("cover.build", "kronjord.cover", "thin_path_rep", _tree_counts),
    ("cover.push_down", "kronjord.cover", "push_down", None),
    ("cover.is_inj", "kronjord.cover", "is_inj", None),
    ("bgp.tau_inverse", "kronjord.bgp", "tau_inverse_tree", None),
    ("bgp.reflect", "kronjord.bgp", "reflect_functor_source", None),
    ("bgp.preprojective", "kronjord.bgp", "build_preprojective", None),
    ("echelon.build", "kronjord.echelon", "select_phi", None),
    ("echelon.build", "kronjord.echelon", "build_echelon_rep", None),
    ("echelon.certificate", "kronjord.echelon", "ekp_echelon_certificate", None),
    ("pipeline.classify", "kronjord.pipeline", "classify", None),
    ("pipeline.validate", "kronjord.pipeline", "validate_witness", None),
]

_MATERIALISE = {"exactmat.sparse_echelon", "exactmat.dense_gf"}


class Tracer:
    """Span store for one traced pass; single-threaded by construction."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.current_op = -1
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for benchmark-side spans)."""
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def _wrapper(self, name: str, fn, hook):
        materialise = name in _MATERIALISE

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                if materialise:
                    args = (list(args[0]),) + args[1:]
                res = fn(*args, **kwargs)
                if hook is not None:
                    self.attrs[i] = hook(args, kwargs, res)
                return res
            finally:
                self.close(i)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; a span name none of whose targets exists is absent."""
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "kronjord" or k.startswith("kronjord."))]
        found = set()
        for name, modname, path, hook in TARGETS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            found.add(name)
            wrapper = self._wrapper(name, fn, hook)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapper)
        self.absent = {name for name, *_ in TARGETS} - found

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def nesting_errors(self) -> list[str]:
        """Spans that end before they start or stick out of their parent."""
        errors = []
        for i, p in enumerate(self.parent):
            if self.end[i] < self.start[i]:
                errors.append(f"span {i} ({self.names[i]}) ends before it starts")
            if p >= 0 and not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                errors.append(f"span {i} ({self.names[i]}) lies outside parent {p}")
            if p >= 0 and self.op[p] != self.op[i]:
                errors.append(f"span {i} ({self.names[i]}) crosses operations")
        for i, s in enumerate(self.self_times()):
            if s < -1e-9:   # tolerance for rounding in the subtraction only
                errors.append(f"span {i} ({self.names[i]}) has negative self time")
        return errors[:20]

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        spans = [[index[n], s, e, p, o] for n, s, e, p, o
                 in zip(self.names, self.start, self.end, self.parent, self.op)]
        with open(path, "w") as fh:
            json.dump({"names": table, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": spans, "attrs": {str(k): v for k, v in self.attrs.items()}}, fh)
