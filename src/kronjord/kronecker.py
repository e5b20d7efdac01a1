"""Representations of the r-Kronecker quiver and their numerical invariants.

The quiver has two vertices and r parallel arrows from vertex 1 to
vertex 2; a representation is a dimension pair (a, b) together with r
matrices of shape b x a acting on column vectors.  This module houses the
bilinear and Tits forms, the Coxeter matrix, root classification, pencil
evaluation and Jordan types, duality, direct sums, the translation to
nilpotent operator matrices, and the JSON interchange format shared by
every CLI command; an arrow shared by several colors is written once.

The sampled checks rank pencils at a seeded plan of probe points.  The
union of the arrows' patterns, each arrow read along the shorter side, is
peeled once into a pencil plan: the pivot count and the pivots' arrows.
Every pencil's pattern lies in that union, so when the union peels to
nothing, as for the push-downs of tree modules, a point where no pivot's
value vanishes has the pivot count as its rank.  A plan is made only
when each pivot holds the entry of one arrow, which then vanishes
exactly where that arrow's coordinate is zero; the probe plan indexes
those points per coordinate, so the whole plan is decided in one pass:
every point off the pivot arrows' zero sets gets the pivot count at
once.  A point left over with one non-zero coordinate is ranked by that
arrow alone; every other one, and every point of a representation with
no plan (a core left, or arrows sharing a pivot's position), is ranked
by ``pencil``, the one evaluator of a pencil, lazily and in order.  The
probe plans are drawn once per (field, r, samples, seed), and the ranks
are kept on the representation per seed, so checks that share a seed
rank each point once, over Q and GF(p) alike.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactmat import (
    QQ,
    ExactMatrix,
    Field,
    Scalar,
    _peel,
    check_arrow_count,
    check_field,
    field_from_json,
    is_count_pair,
    require_fields,
)

# alpha samples are drawn from this symmetric integer box; a random
# rational point detects the generic rank with overwhelming probability
ALPHA_BOX = 999


class DimVector(NamedTuple):
    """Dimension pair (a, b): a at vertex 1, b at vertex 2."""

    a: int
    b: int


class JordanType(NamedTuple):
    """Block-count pair: c blocks of size 1 and d blocks of size 2."""

    c: int
    d: int


@dataclass(frozen=True)
class RootClass:
    """Classification of a dimension vector under the Tits form."""

    kind: str       # not-a-root | real | imaginary
    position: str   # preprojective | preinjective | regular | simple | n/a


@dataclass(frozen=True)
class KroneckerRep:
    """A representation of the r-Kronecker quiver: r matrices of shape b x a."""

    r: int
    dim: DimVector
    mats: tuple[ExactMatrix, ...]
    field: Field = QQ
    # seed -> {k: rank of the pencil at probe point k}: the points the
    # pencil plan decides are stored together, the others as they are
    # ranked, so keys can skip; a cache that never changes a result, so it
    # is not part of equality, hash or JSON
    _probe_ranks: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    # {"system": the SparseSystem of End(m)}, stored by the first Hom, Ext or
    # brick call that needs it; a memo that never changes a result, freed
    # with the representation
    _end_memo: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("arrow count r must be at least 2")
        if len(self.mats) != self.r:
            raise ValueError(f"expected {self.r} matrices, got {len(self.mats)}")
        a, b = self.dim
        if a < 0 or b < 0:
            raise ValueError("negative dimension")
        for m in self.mats:
            if (m.rows, m.cols) != (b, a):
                raise ValueError(f"matrix shape {(m.rows, m.cols)} != {(b, a)}")
            if m.field != self.field:
                raise ValueError("matrix field differs from representation field")

    def total_dim(self) -> int:
        return self.dim.a + self.dim.b

    def to_json(self) -> dict:
        strs = {}   # push_down shares one zero arrow among the colors it leaves unused
        return {
            "r": self.r,
            "dim": [self.dim.a, self.dim.b],
            "field": self.field.to_json(),
            "mats": [strs[k] if (k := id(m)) in strs else strs.setdefault(k, m.to_str_lists())
                     for m in self.mats],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @staticmethod
    def from_json(d: dict) -> "KroneckerRep":
        require_fields(d, ("r", "dim", "field", "mats"), "representation")
        r, dim, mats = d["r"], d["dim"], d["mats"]
        check_arrow_count(r, "representation")
        field = field_from_json(d["field"])
        check_field(is_count_pair(dim), "representation", "dim",
                    "a pair of non-negative integers [a, b]", dim)
        check_field(isinstance(mats, list) and len(mats) == r, "representation", "mats",
                    f"a list of r = {r} matrices", mats)
        a, b = dim
        mats = tuple(ExactMatrix.from_str_lists(field, m, b, a, f"representation 'mats'[{t}]")
                     for t, m in enumerate(mats))
        return KroneckerRep(r, DimVector(a, b), mats, field)


# ---------------------------------------------------------------------------
# quadratic and bilinear forms, Coxeter matrix
# ---------------------------------------------------------------------------

def tits_form(r: int, v: Sequence[int]) -> int:
    """q(a, b) = a^2 + b^2 - r*a*b."""
    if r < 2:
        raise ValueError("r must be at least 2")
    a, b = v
    return a * a + b * b - r * a * b


def euler_form(r: int, x: Sequence[int], y: Sequence[int]) -> int:
    """Bilinear form <x, y> = x1*y1 + x2*y2 - r*x1*y2."""
    if r < 2:
        raise ValueError("r must be at least 2")
    return x[0] * y[0] + x[1] * y[1] - r * x[0] * y[1]


def coxeter_matrix(r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return ((r * r - 1, -r), (r, -1))


def coxeter_matrix_inverse(r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return ((-1, r), (-r, r * r - 1))


def coxeter_apply(r: int, v: Sequence[int], power: int) -> tuple[int, int]:
    """Apply the Coxeter matrix (or its exact integer inverse) ``power`` times.

    Intermediate and final vectors may have negative entries; callers own
    the interpretation.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    m = coxeter_matrix(r) if power >= 0 else coxeter_matrix_inverse(r)
    x, y = int(v[0]), int(v[1])
    for _ in range(abs(power)):
        x, y = m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y
    return (x, y)


def classify_root(r: int, v: Sequence[int]) -> RootClass:
    """Root class of a nonzero dimension vector under q."""
    a, b = int(v[0]), int(v[1])
    if (a, b) == (0, 0):
        raise ValueError("the zero vector is not classified")
    q = tits_form(r, (a, b))
    if q > 1:
        return RootClass("not-a-root", "n/a")
    if q == 1:
        if (a, b) in ((1, 0), (0, 1)):
            return RootClass("real", "simple")
        return RootClass("real", "preprojective" if a < b else "preinjective")
    return RootClass("imaginary", "regular")


# ---------------------------------------------------------------------------
# pencils and Jordan types
# ---------------------------------------------------------------------------

def pencil(m: KroneckerRep, alpha: Sequence) -> ExactMatrix:
    """The b x a matrix sum(alpha_i * mats[i])."""
    if len(alpha) != m.r:
        raise ValueError("alpha length must equal the arrow count")
    element = m.field.element
    coeffs = [element(x) for x in alpha]
    if not any(coeffs):
        raise ValueError("alpha must be nonzero")
    rows: list[dict] = [{} for _ in range(m.dim.b)]
    for c, mat in zip(coeffs, m.mats):
        if c:
            for acc, src in zip(rows, mat.sparse_rows()):
                for j, x in src.items():
                    acc[j] = acc.get(j, 0) + c * x
    # the arrows' columns lie in 0..a-1, so only the sums need reducing
    return ExactMatrix._wrap(m.field, [{j: y for j, x in row.items() if (y := element(x))}
                                       for row in rows], m.dim.a)


def jordan_type_at(m: KroneckerRep, alpha: Sequence) -> JordanType:
    """Jordan type of the pencil operator at alpha: d = rank, c = a+b-2d."""
    d = pencil(m, alpha).rank()
    return JordanType(m.dim.a + m.dim.b - 2 * d, d)


class _ProbePlan(NamedTuple):
    """Integer probe points, and for each coordinate t the indices of the
    points where it is zero in the field (``zeros[t]``)."""

    points: Sequence[Sequence[int]]
    zeros: tuple[frozenset[int], ...]


def _probe_plan(points: Sequence[Sequence[int]], r: int, p: Optional[int]) -> _ProbePlan:
    """``points`` with their zero index over Q (``p`` None) or GF(p)."""
    return _ProbePlan(points, tuple(
        frozenset(k for k, pt in enumerate(points) if not (pt[t] if p is None else pt[t] % p))
        for t in range(r)))


@lru_cache(maxsize=8)
def _draw_probe_points(p: Optional[int], r: int, samples: int, seed: int) -> _ProbePlan:
    """The probe plan over Q (``p`` None) or GF(p), as integer points with their zero index.

    Each plan is drawn and indexed once and kept in this small cache, as
    tuples that ``probe_alphas`` and ``_sampled_ranks`` read and never
    change.  After the basis vectors, each point is r ``randint`` draws
    from the sampling box (over GF(p), from 0..p-1), redrawn while all are
    zero.
    """
    low, high = (-ALPHA_BOX, ALPHA_BOX) if p is None else (0, p - 1)
    draw = random.Random(seed).randint
    out = [tuple(int(j == i) for j in range(r)) for i in range(min(r, samples))]
    while len(out) < samples:
        vals = tuple(draw(low, high) for _ in range(r))
        if any(vals):
            out.append(vals)
    return _probe_plan(tuple(out), r, p)


def probe_alphas(field: Field, r: int, samples: int, seed: int) -> list[list[Scalar]]:
    """Deterministic sample plan: the r standard basis vectors first, then
    seeded random draws.

    Probing the basis catches the degenerate pencils that vanish on a
    coordinate hyperplane, which random integer draws would almost never
    hit exactly.  The plan for ``n`` samples is a prefix of the plan for
    any larger count.
    """
    return [[field.element(v) for v in pt]
            for pt in _draw_probe_points(field.modulus, r, samples, seed).points]


class _PencilPlan(NamedTuple):
    """The pivots of a union of arrows that peels to nothing, each one arrow's entry.

    A pivot holds one non-zero entry of one arrow, so it vanishes exactly
    where that arrow's coordinate does: ``arrows`` holds those arrows.
    """

    npivots: int
    arrows: frozenset[int]


def _pencil_plan(m: KroneckerRep) -> Optional[_PencilPlan]:
    """The pencil plan of ``m``, or None when the union of its arrows leaves
    a core or two arrows share a pivot's position."""
    # each arrow is read along the shorter side: the transpose changes no
    # pencil's rank, and fewer, longer rows make a smaller union to peel
    a, b = m.dim
    # each position of the union lists the arrows non-zero there
    rows: list[dict[int, list[int]]] = [{} for _ in range(min(a, b))]
    for t, mat in enumerate(m.mats):
        for arrows, row in zip(rows, (mat.transpose() if a < b else mat).sparse_rows()):
            for j in row:
                arrows.setdefault(j, []).append(t)
    pivots, core = _peel(rows)
    arrows = [rows[i][c] for i, c in pivots]
    if core or any(len(ts) > 1 for ts in arrows):
        return None
    return _PencilPlan(len(pivots), frozenset(ts[0] for ts in arrows))


def _pencil_rank(m: KroneckerRep, alpha: Sequence[int]) -> int:
    """Rank of sum(alpha_t * arrow_t) at a non-zero integer point the pencil plan does not decide.

    At a point with one non-zero coordinate t the pencil is c * arrow t
    with c non-zero, which has the rank of arrow t, so no pencil is built.
    Every other point goes to ``pencil``.
    """
    p = m.field.modulus
    live = [t for t, x in enumerate(alpha) if (x if p is None else x % p)]
    if len(live) == 1:
        return m.mats[live[0]].rank()
    return pencil(m, alpha).rank()


def _ranks_at(m: KroneckerRep, probes: _ProbePlan, ranks: dict[int, int]) -> Iterator[int]:
    """Pencil ranks at ``probes.points``, over the field of ``m``, lazily, in order.

    ``ranks`` maps a point's index to its rank; every rank found is stored
    there, and a stored one is not found again.  On the first step, the
    points not yet stored are decided together from the pencil plan of
    ``m``.  The pencil's pattern lies in the union, so a pivot of the union
    whose value at alpha is non-zero is a singleton of the pencil's live
    pattern too and adds exactly 1 to its rank: where no pivot vanishes,
    the rank is the pivot count.  A pivot vanishes on its arrow's zero set,
    read off ``probes.zeros``.  Each point the plan cannot decide (with no
    plan, at a basis point, where a pivot's coordinate is zero) is ranked
    by ``_pencil_rank`` when the iteration reaches it, so a caller that
    stops early leaves the later ones unranked.
    """
    points = probes.points
    pending = set(range(len(points))).difference(ranks)
    plan = _pencil_plan(m) if pending else None
    if plan is not None:
        decided = pending.difference(*(probes.zeros[t] for t in plan.arrows))
        ranks.update(dict.fromkeys(decided, plan.npivots))
        pending -= decided
    done = 0
    for k in sorted(pending):
        yield from map(ranks.__getitem__, range(done, k))
        rk = ranks[k] = _pencil_rank(m, points[k])
        yield rk
        done = k + 1
    yield from map(ranks.__getitem__, range(done, len(points)))


def _sampled_ranks(m: KroneckerRep, samples: int, seed: int) -> Iterator[int]:
    """Pencil ranks at ``probe_alphas(m.field, m.r, samples, seed)``, lazily, in order.

    ``samples`` must be at least 1.  The ranks are found by ``_ranks_at``
    and kept on ``m`` per seed; the plan is not.  The points for ``n``
    samples are a prefix of those for any larger count, so every check
    that samples ``m`` with one seed ranks each point once.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    return _ranks_at(m, _draw_probe_points(m.field.modulus, m.r, samples, seed),
                     m._probe_ranks.setdefault(seed, {}))


def generic_rank(m: KroneckerRep, samples: int = 100, seed: int = 0) -> tuple[int, int, dict]:
    """Sampled generic rank d_M, the complement c_M, and the sampling record.

    The maximal pencil rank is attained on a dense open set, so the
    sampled maximum is a certified lower bound for the generic rank and
    equals it with high probability; the record lists every rank seen.
    """
    ranks = set(_sampled_ranks(m, samples, seed))
    d = max(ranks)
    c = m.dim.a + m.dim.b - 2 * d
    record = {"seed": seed, "samples": samples, "ranks_seen": sorted(ranks)}
    return d, c, record


def is_constant_jordan_type(m: KroneckerRep, samples: int = 100, seed: int = 0
                            ) -> tuple[bool, Optional[JordanType], dict]:
    """Sampled constancy check of the pencil rank.

    Verdict is true iff all sampled ranks agree; exact certificates for
    the constructions come from the echelon and cover modules and are
    combined with this check by the pipeline.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    d, c, record = generic_rank(m, samples, seed)
    constant = len(record["ranks_seen"]) == 1
    return constant, JordanType(c, d) if constant else None, record


# ---------------------------------------------------------------------------
# duality, sums, simples
# ---------------------------------------------------------------------------

def dual(m: KroneckerRep) -> KroneckerRep:
    """Transpose every arrow matrix and swap the two vertices."""
    return KroneckerRep(m.r, DimVector(m.dim.b, m.dim.a),
                        tuple(mat.transpose() for mat in m.mats), m.field)


def direct_sum(m: KroneckerRep, n: KroneckerRep) -> KroneckerRep:
    if m.r != n.r or m.field != n.field:
        raise ValueError("incompatible summands")
    a = m.dim.a + n.dim.a
    b = m.dim.b + n.dim.b
    mats = tuple(ExactMatrix.from_rows(m.field, p.sparse_rows() + [
        {m.dim.a + j: x for j, x in row.items()} for row in q.sparse_rows()], a)
        for p, q in zip(m.mats, n.mats))
    return KroneckerRep(m.r, DimVector(a, b), mats, m.field)


def simple_rep(r: int, dim: Sequence[int], field: Field = QQ) -> KroneckerRep:
    """The simple at vertex 1 (dim (1,0)) or at vertex 2 (dim (0,1))."""
    a, b = int(dim[0]), int(dim[1])
    if (a, b) not in ((1, 0), (0, 1)):
        raise ValueError("a simple has dimension (1,0) or (0,1)")
    mats = tuple(ExactMatrix.zeros(field, b, a) for _ in range(r))
    return KroneckerRep(r, DimVector(a, b), mats, field)


# ---------------------------------------------------------------------------
# admissible Jordan types and the dimension-vector bijection
# ---------------------------------------------------------------------------

def is_in_ijt(r: int, c: int, d: int) -> tuple[bool, str]:
    """Membership of (c, d) in the realizable set, with the decisive clause.

    All clauses are pure integer arithmetic; no square roots are ever
    evaluated.
    """
    if c < 0 or d < 0:
        raise ValueError("c and d must be nonnegative")
    if c < 1:
        return False, "c >= 1"
    if d < 1:
        return False, "d >= 1"
    if tits_form(r, (d, d + c)) > 1:
        return False, "q(d, d+c) <= 1"
    if c < r - 1:
        return False, "c >= r-1"
    return True, "in IJT"


def xi(c: int, d: int) -> DimVector:
    """(c, d) -> (d, d+c), the dimension vector of an equal-kernels witness."""
    return DimVector(d, d + c)


def xi_inverse(a: int, b: int) -> JordanType:
    """(a, b) -> (b-a, a); requires b >= a."""
    if b < a:
        raise ValueError("xi_inverse needs b >= a")
    return JordanType(b - a, a)


# ---------------------------------------------------------------------------
# module-operator translation
# ---------------------------------------------------------------------------

def to_module_operators(m: KroneckerRep) -> list[ExactMatrix]:
    """Square nilpotent operators X_i = [[0,0],[mats[i],0]] on M1 + M2.

    Every product X_i X_j vanishes (Loewy length at most 2) and the rank
    of sum(alpha_i X_i) equals the rank of the corresponding pencil.
    """
    n = m.total_dim()
    return [ExactMatrix.from_rows(m.field, [{}] * m.dim.a + mat.sparse_rows(), n)
            for mat in m.mats]
