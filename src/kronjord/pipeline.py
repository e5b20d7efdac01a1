"""The realization pipeline: classify a Jordan type, construct a witness,
certify it, and emit a machine-readable record.

Dispatch on (c, d) with target dimension vector (a, b) = (d, d+c):

* (1, 0)                            -> the simple of dimension (0, 1);
* q(a,b) = 1                        -> preprojective chain;
* q(a,b) <= 0, b <= (r-1)a          -> echelon witness (structural certificate);
* q(a,b) <= 0, (r-1)a+1 <= b inside
  the cover window                  -> source-regular tree witness;
* otherwise                         -> Coxeter shift: build at the shifted vector
  (tree or thin zigzag) and apply the inverse translate.

Every route but echelon builds a tree on the universal cover (the simple
and the preprojectives as inverse translates of the simple at a sink or
of the star at the root) and certifies its push-down the same way: Inj on
the tree is the exact equal-kernels certificate, and End of the push-down
is local.  Every boundary test is integer arithmetic; the equal-images
variant is obtained by dualizing an equal-kernels witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .bgp import build_preprojective, coxeter_shift_plan, tau_inverse_tree
from .cover import (
    TreeRep,
    build_indecomposable_tree_rep,
    build_root_vector,
    build_source_regular,
    is_inj,
    push_down,
    thin_path_rep,
)
from .echelon import build_echelon_rep, ekp_echelon_certificate, select_phi
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
from .verify import eip_sample_check, end_is_local, is_brick, restriction_check

CJT_SAMPLES = 100
EKP_SAMPLES = 200
# the equal-kernels certificate each route produces, and validation demands
ROUTE_CERTIFICATE = {"simple": "inj-cover", "preprojective": "inj-cover", "echelon": "echelon",
                     "cover": "inj-cover", "shift": "inj-cover"}


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
        check_field(evidence in ("brick", "local-endo"), "witness", "indec_evidence",
                    "'brick' or 'local-endo'", evidence)
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


def _build_cover_tree(r: int, a: int, b: int, trace: list[str]) -> TreeRep:
    quiver = build_source_regular(r, a)
    trace.append(f"source_regular:n={a}")
    alpha = build_root_vector(quiver, a, b)
    budgets = sorted(((v, alpha[v]) for v in alpha if alpha[v] > 1))
    trace.append(f"root_vector:extra={[(list(v), x) for v, x in budgets]}")
    return build_indecomposable_tree_rep(quiver, alpha, trace=trace)


def _build_tree(route: str, r: int, a: int, b: int, trace: list[str]) -> TreeRep:
    """The tree on the cover whose push-down is the witness of a non-echelon route."""
    if route in ("simple", "preprojective"):
        return build_preprojective(r, a, b)
    if route == "cover":
        return _build_cover_tree(r, a, b, trace)
    plan = coxeter_shift_plan(r, a, b)
    u, v = plan.intermediate
    trace.append(f"shift:l={plan.l}:{plan.window_case}:intermediate=({u},{v})")
    if plan.window_case == "cover-case":
        tree = _build_cover_tree(r, u, v, trace)
    else:
        tree = thin_path_rep(r, u, v)
        trace.append(f"thin_path:u={u},v={v}")
    for _ in range(plan.l):
        tree = tau_inverse_tree(tree)
    return tree


def realize(r: int, c: int, d: int, mode: str = "ekp", seed: int = 0) -> CertifiedWitness:
    """Construct and certify a witness of constant Jordan type [1]^c [2]^d.

    Raises JordanTypeRejected when the type is not realizable, naming the
    failed clause.  Certificate failures after a successful construction
    indicate an implementation bug and surface as hard assertion errors.
    """
    if mode not in ("ekp", "eip"):
        raise ValueError("mode must be 'ekp' or 'eip'")
    cls = classify(r, c, d)
    if not cls.accepted:
        raise JordanTypeRejected(cls.reason)
    a, b = cls.dim
    trace = [f"route:{cls.route}"]
    tree: Optional[TreeRep] = None
    certificate = {"kind": ROUTE_CERTIFICATE[cls.route]}
    evidence: str

    if cls.route == "echelon":
        spec = select_phi(r, a, b)
        trace.append(f"echelon:{spec.case_tag}:phi={list(spec.phi)}")
        rep = build_echelon_rep(spec)
        if not ekp_echelon_certificate(rep):
            raise AssertionError("echelon witness failed its structural certificate")
        if not is_brick(rep):
            raise AssertionError("echelon witness failed the brick check")
        evidence = "brick"
    else:
        tree = _build_tree(cls.route, r, a, b, trace)
        rep = push_down(tree)
        inj, witness = is_inj(tree)
        if not inj:
            raise AssertionError(f"{cls.route} witness failed Inj at edge {witness}")
        if not end_is_local(rep):
            raise AssertionError(f"{cls.route} witness has non-local endomorphisms")
        evidence = "local-endo"

    if rep.dim != DimVector(a, b):
        raise AssertionError(f"{cls.route} witness has dimension {rep.dim}, wanted {(a, b)}")

    # the longer plan first: the shorter one is its prefix, so it is drawn once
    restriction_ok, restriction_detail = restriction_check(rep, EKP_SAMPLES, seed)
    if not restriction_ok:
        raise AssertionError("witness failed the generic-rank restrictions")
    constant, jtype, record = is_constant_jordan_type(rep, CJT_SAMPLES, seed)
    if not constant or jtype != JordanType(c, d):
        raise AssertionError(f"witness Jordan type {jtype} does not match ({c},{d})")

    checks = {
        "jordan_samples": record,
        "restriction": {"d": restriction_detail["d"], "c": restriction_detail["c"],
                        "q": restriction_detail["q"]},
    }

    if mode == "eip":
        rep = dual(rep)
        certificate["via_duality"] = True
        trace.append("dualized:eip")
        if not eip_sample_check(rep, EKP_SAMPLES, seed):
            raise AssertionError("dual witness failed the sampled image check")
        checks["eip_samples"] = {"samples": EKP_SAMPLES, "seed": seed}

    return CertifiedWitness(rep, JordanType(c, d), mode, certificate, evidence, trace, tree, checks)


# ---------------------------------------------------------------------------
# round-trip validation
# ---------------------------------------------------------------------------

def validate_witness(data: dict, seed: int = 1) -> tuple[bool, dict]:
    """Re-validate a serialized witness from its JSON alone.

    The certificate a witness needs is decided from (r, c, d) by
    ``classify``, never taken from the file: the echelon structure, or Inj
    on the embedded tree plus push-down agreement.  The equal-kernels side
    must have dimension vector xi(c, d).  Then a fresh constant-Jordan-type
    sampling and the locality certificate run.  A Jordan type that is not
    realizable, or a certificate of the wrong kind, is rejected with a
    ``reason``.
    """
    w = CertifiedWitness.from_json(data)
    c, d = w.jordan
    cls = classify(w.rep.r, c, d)
    if not cls.accepted:
        return False, {"jordan": False,
                       "reason": f"jordan {[c, d]} is not realizable: fails clause {cls.reason!r}"}
    results = {}
    reason = None
    ekp_side = w.rep if w.mode == "ekp" else dual(w.rep)
    results["dim"] = ekp_side.dim == cls.dim
    kind = w.ekp_certificate.get("kind")
    required = ROUTE_CERTIFICATE[cls.route]
    if kind != required:
        results["certificate"] = False
        reason = f"certificate kind {kind!r}: route {cls.route} requires {required!r}"
    elif kind == "echelon":
        results["certificate"] = ekp_echelon_certificate(ekp_side)
    else:
        results["certificate"] = (w.tree is not None and is_inj(w.tree)[0]
                                  and push_down(w.tree) == ekp_side)
    if w.mode == "eip":
        results["eip_samples"] = eip_sample_check(w.rep, EKP_SAMPLES, seed)
    constant, jtype, _ = is_constant_jordan_type(w.rep, CJT_SAMPLES, seed)
    results["jordan"] = constant and jtype == w.jordan
    results["indecomposable"] = end_is_local(w.rep)
    ok = all(results.values())
    if reason:
        results["reason"] = reason
    return ok, results
