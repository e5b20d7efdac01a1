"""The realization pipeline: classify a Jordan type, construct a witness,
certify it, and emit a machine-readable record.

Dispatch on (c, d) with target dimension vector (a, b) = (d, d+c):

* (1, 0)                            -> the simple of dimension (0, 1);
* q(a,b) = 1                        -> preprojective chain;
* q(a,b) <= 0, b <= (r-1)a          -> echelon witness (structural certificate);
* q(a,b) <= 0, (r-1)a+1 <= b inside
  the cover window                  -> source-regular tree witness;
* otherwise                         -> Coxeter shift of a cover tree or thin path.

Every route but echelon builds a tree on the universal cover by one Phi
descent, ``bgp.lift``: Phi walks (a, b) down l times to the simple, a thin
path or a cover tree (l = 0 on the cover route), and l inverse translates
lift that seed back.  The tree is certified on itself: Inj is the exact
equal-kernels certificate, and a brick tree has an indecomposable push-down.
``ROUTE_CERTIFICATE`` names the two certificates of each route and
``_certify`` runs them, for ``realize`` and ``validate_witness`` alike.

An equal-kernels witness of dimension (a, b) has constant Jordan type
[1]^(b-a) [2]^a, since every nonzero pencil has rank a; so ``realize``
records the Jordan type and the generic-rank restrictions from its exact
certificates and samples no pencil.  Every boundary test is integer
arithmetic; the equal-images variant is obtained by dualizing an
equal-kernels witness.

For p = 2, constant Jordan type [1]^c [2]^d does not force Loewy length
at most 2 as it does for p > 2, but the Kronecker correspondence for the
modules of Loewy length 2 still holds, so every route applies unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .bgp import build_preprojective, lift
from .cover import TreeRep, is_inj, push_down
from .echelon import build_echelon_rep, echelon_end_dim, echelon_offsets, select_phi
from .exactmat import check_field, is_count_pair, require_fields
from .kronecker import (
    DimVector,
    JordanType,
    KroneckerRep,
    dual,
    is_constant_jordan_type,
    is_in_ijt,
    tits_form,
    xi,
)
from .verify import eip_sample_check, is_brick

# sample counts of the cross-checks in validate_witness
CJT_SAMPLES = 100
EKP_SAMPLES = 200
# (equal-kernels certificate, indecomposability evidence) each route
# produces, and validation demands.  A brick tree certifies "local-endo": the
# universal cover's group is free, so torsion-free, and push-down keeps it
# indecomposable (Gabriel 1981; Bongartz-Gabriel 1982): End local, often not k.
ROUTE_CERTIFICATE = {"simple": ("inj-cover", "local-endo"),
                     "preprojective": ("inj-cover", "local-endo"),
                     "echelon": ("echelon", "brick"),
                     "cover": ("inj-cover", "local-endo"),
                     "shift": ("inj-cover", "local-endo")}
_EVIDENCE = sorted({evidence for _, evidence in ROUTE_CERTIFICATE.values()})


class JordanTypeRejected(ValueError):
    """Raised by realize when (c, d) is not realizable; carries the clause."""

    def __init__(self, clause: str):
        super().__init__(f"not realizable: fails clause {clause!r}")
        self.clause = clause


@dataclass(frozen=True)
class Classification:
    accepted: bool
    route: Optional[str]      # simple | preprojective | echelon | cover | shift
    reason: str
    dim: Optional[DimVector]

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "route": self.route,
            "reason": self.reason,
            "dim": list(self.dim) if self.dim else None,
        }


def classify(r: int, c: int, d: int) -> Classification:
    """Dispatch decision for (c, d), by integer arithmetic only."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if (c, d) == (1, 0):
        return Classification(True, "simple", "the one-dimensional type", DimVector(0, 1))
    ok, reason = is_in_ijt(r, c, d)
    if not ok:
        return Classification(False, None, reason, None)
    a, b = xi(c, d)
    q = tits_form(r, (a, b))
    if q == 1:
        route = "preprojective"
    elif b <= (r - 1) * a:
        route = "echelon"
    elif (r - 1) * b <= (r * r - r - 1) * a:
        route = "cover"
    else:
        route = "shift"
    return Classification(True, route, "in IJT", DimVector(a, b))


@dataclass
class CertifiedWitness:
    """A certified realization of Jordan type [1]^c [2]^d."""

    rep: KroneckerRep
    jordan: JordanType
    mode: str                      # ekp | eip
    ekp_certificate: dict          # {"kind": echelon|inj-cover, ...}
    indec_evidence: str            # brick | local-endo
    construction_trace: list[str] = dc_field(default_factory=list)
    tree: Optional[TreeRep] = None
    # what the exact certificates imply: "jordan" {c, d, from: certificate
    # kind}, "restriction" {d, c, q} and, in eip mode, "eip" {from: duality}
    checks: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "rep": self.rep.to_json(),
            "jordan": [self.jordan.c, self.jordan.d],
            "mode": self.mode,
            "ekp_certificate": self.ekp_certificate,
            "indec_evidence": self.indec_evidence,
            "construction_trace": self.construction_trace,
            "checks": self.checks,
        }
        if self.tree is not None:
            out["tree"] = self.tree.to_json()
        return out

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @staticmethod
    def from_json(d: dict) -> "CertifiedWitness":
        require_fields(d, ("rep", "jordan", "mode", "ekp_certificate", "indec_evidence"),
                       "witness")
        jordan, mode, certificate = d["jordan"], d["mode"], d["ekp_certificate"]
        evidence = d["indec_evidence"]
        trace, checks = d.get("construction_trace", []), d.get("checks", {})
        check_field(is_count_pair(jordan), "witness", "jordan",
                    "a pair of non-negative integers [c, d]", jordan)
        check_field(mode in ("ekp", "eip"), "witness", "mode", "'ekp' or 'eip'", mode)
        check_field(isinstance(certificate, dict), "witness", "ekp_certificate",
                    "a JSON object", certificate)
        check_field(evidence in _EVIDENCE, "witness", "indec_evidence",
                    " or ".join(map(repr, _EVIDENCE)), evidence)
        check_field(isinstance(trace, list) and all(isinstance(t, str) for t in trace),
                    "witness", "construction_trace", "a list of strings", trace)
        check_field(isinstance(checks, dict), "witness", "checks", "a JSON object", checks)
        return CertifiedWitness(
            rep=KroneckerRep.from_json(d["rep"]),
            jordan=JordanType(*jordan),
            mode=mode,
            ekp_certificate=dict(certificate),
            indec_evidence=evidence,
            construction_trace=list(trace),
            tree=TreeRep.from_json(d["tree"]) if "tree" in d else None,
            checks=dict(checks),
        )


def _build_tree(route: str, r: int, a: int, b: int, trace: list[str]) -> TreeRep:
    """The tree on the cover whose push-down is the witness of a non-echelon route."""
    if route in ("simple", "preprojective"):
        return build_preprojective(r, a, b)
    return lift(r, a, b, trace=trace)


def _certify(route: str, rep: KroneckerRep, tree: Optional[TreeRep]) -> dict[str, bool]:
    """Run the two exact certificates ``ROUTE_CERTIFICATE`` gives ``route``.

    ``rep`` is the equal-kernels side.  An echelon witness must have the
    echelon structure and be a brick: both verdicts come from one match
    of its arrows' offsets, the brick test from ``echelon_end_dim``.  If
    some arrow is not a shifted identity, the certificate fails and the
    brick test falls back to ``is_brick``.  Any other witness needs a
    tree that satisfies Inj and is a brick.  That the tree pushes down to
    ``rep`` is the caller's to ensure: ``realize`` builds ``rep`` that
    way, and ``validate_witness`` compares the two.
    """
    if route == "echelon":
        offsets = echelon_offsets(rep)
        if offsets is None:
            return {"certificate": False, "indecomposable": is_brick(rep)}
        return {"certificate": len(set(offsets)) == len(offsets),
                "indecomposable": echelon_end_dim(*rep.dim, offsets) == 1}
    return {"certificate": tree is not None and is_inj(tree)[0],
            "indecomposable": tree is not None and is_brick(tree)}


def realize(r: int, c: int, d: int, mode: str = "ekp", seed: int = 0) -> CertifiedWitness:
    """Construct and certify a witness of constant Jordan type [1]^c [2]^d.

    Raises JordanTypeRejected when the type is not realizable, naming the
    failed clause.  Certificate failures after a successful construction
    indicate an implementation bug and surface as hard assertion errors.
    The witness is certified exactly and nothing is sampled, so ``seed``
    has no effect; it is still accepted so that existing callers work.
    """
    if mode not in ("ekp", "eip"):
        raise ValueError("mode must be 'ekp' or 'eip'")
    cls = classify(r, c, d)
    if not cls.accepted:
        raise JordanTypeRejected(cls.reason)
    a, b = cls.dim
    trace = [f"route:{cls.route}"]
    tree: Optional[TreeRep] = None
    if cls.route == "echelon":
        spec = select_phi(r, a, b)
        trace.append(f"echelon:{spec.case_tag}:phi={list(spec.phi)}")
        rep = build_echelon_rep(spec)
    else:
        tree = _build_tree(cls.route, r, a, b, trace)
        rep = push_down(tree)
    if rep.dim != DimVector(a, b):
        raise AssertionError(f"{cls.route} witness has dimension {rep.dim}, wanted {(a, b)}")
    verdicts = _certify(cls.route, rep, tree)
    if not all(verdicts.values()):
        raise AssertionError(f"{cls.route} witness failed its exact certificates: {verdicts}")

    kind, evidence = ROUTE_CERTIFICATE[cls.route]
    certificate = {"kind": kind}
    # every nonzero pencil of an equal-kernels witness has rank a
    checks = {"jordan": {"c": c, "d": d, "from": kind},
              "restriction": {"d": a, "c": b - a, "q": tits_form(r, (a, b))}}
    if mode == "eip":
        rep = dual(rep)
        certificate["via_duality"] = True
        trace.append("dualized:eip")
        checks["eip"] = {"from": "duality"}

    return CertifiedWitness(rep, JordanType(c, d), mode, certificate, evidence, trace, tree, checks)


# ---------------------------------------------------------------------------
# round-trip validation
# ---------------------------------------------------------------------------

def validate_witness(data: dict, seed: int = 1) -> tuple[bool, dict]:
    """Re-validate a serialized witness from its JSON alone.

    The certificates a witness needs are decided from (r, c, d) by
    ``classify``, never taken from the file.  First a tree it carries must
    have the representation's ``r`` and every edge from a source to a
    sink, and the equal-kernels side and the tree's sources and sinks
    must have dimension vector xi(c, d).
    ``_certify`` then runs the certificates on it: the echelon structure
    and the brick check, or Inj and the brick check on the embedded tree,
    which must push down to the equal-kernels side.
    Fresh sampled constant-Jordan-type and, in eip mode, image checks run
    as independent cross-checks.  A Jordan type that is not
    realizable, a certificate kind or indecomposability evidence other
    than the route's, a tree on an echelon witness, or a missing tree, a
    tree over another field or one that does not push down to the
    equal-kernels side on any other route, is rejected with a ``reason``.
    """
    w = CertifiedWitness.from_json(data)
    c, d = w.jordan
    cls = classify(w.rep.r, c, d)
    if not cls.accepted:
        return False, {"jordan": False,
                       "reason": f"jordan {[c, d]} is not realizable: fails clause {cls.reason!r}"}
    # dimensions first: every certificate's cost grows with those the file declares
    dim = list(w.rep.dim if w.mode == "ekp" else reversed(w.rep.dim))
    if dim != list(cls.dim):
        return False, {"dim": False, "reason": f"dim {dim}: jordan {[c, d]} needs {list(cls.dim)}"}
    if w.tree is not None and cls.route != "echelon":
        if w.tree.r != w.rep.r:
            return False, {"tree": False, "reason": f"tree: r = {w.tree.r}, not the "
                                                    f"representation's {w.rep.r}"}
        edge = w.tree.reversed_edge()
        if edge is not None:
            t, h = edge
            return False, {"tree": False, "reason": f"tree: edge {list(t)} -> {list(h)} "
                                                    f"runs from a sink to a source"}
        tree_dim = [sum(w.tree.dims[v] for v in vs)
                    for vs in (w.tree.support_sources(), w.tree.support_sinks())]
        if tree_dim != dim:
            return False, {"tree": False, "reason": f"tree: source and sink dimensions sum to "
                                                    f"{tree_dim}, not {dim}"}
    ekp_side = w.rep if w.mode == "ekp" else dual(w.rep)
    results = {"dim": True, **_certify(cls.route, ekp_side, w.tree)}
    kind, evidence = ROUTE_CERTIFICATE[cls.route]
    found = w.ekp_certificate.get("kind")
    reasons = []
    if found != kind:
        results["certificate"] = False
        reasons.append(f"certificate kind {found!r}: route {cls.route} requires {kind!r}")
    if w.indec_evidence != evidence:
        results["indecomposable"] = False
        reasons.append(f"indec_evidence {w.indec_evidence!r}: "
                       f"route {cls.route} requires {evidence!r}")
    if cls.route == "echelon":
        if w.tree is not None:
            # an echelon witness is certified on itself; a tree it carries would go unchecked
            results["tree"] = False
            reasons.append("tree: route echelon carries no tree")
    elif w.tree is None:
        reasons.append(f"tree: route {cls.route} needs a tree")
    elif w.tree.field != ekp_side.field:
        results["certificate"] = False
        reasons.append(f"tree: field {w.tree.field.name} differs from the "
                       f"representation's {ekp_side.field.name}")
    elif push_down(w.tree) != ekp_side:
        results["certificate"] = False
        reasons.append("tree: does not push down to the equal-kernels side")
    if w.mode == "eip":
        results["eip_samples"] = eip_sample_check(w.rep, EKP_SAMPLES, seed)
    constant, jtype, _ = is_constant_jordan_type(w.rep, CJT_SAMPLES, seed)
    results["jordan"] = constant and jtype == w.jordan
    ok = all(results.values())
    if reasons:
        results["reason"] = "; ".join(reasons)
    return ok, results
