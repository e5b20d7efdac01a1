"""The one-pass JSON readers against the earlier field-by-field ones.

Every realized route in both modes, plus one tree over GF(5), is read
after each single-field corruption from a fixed list.  The package's
reader must raise a ``ValueError`` with exactly the earlier reader's
message, or return an object with exactly its JSON.  Valid files must
never reach the field-by-field walk.
"""

import copy
import json
from functools import lru_cache

import pytest
from reference_impls import (
    reference_from_str_lists,
    reference_rep_from_json,
    reference_tree_from_json,
)

from kronjord import cover
from kronjord.cover import (
    TreeRep,
    build_indecomposable_tree_rep,
    build_root_vector,
    build_source_regular,
    neighbors,
    push_down,
)
from kronjord.exactmat import GF, QQ, ExactMatrix
from kronjord.kronecker import KroneckerRep
from kronjord.pipeline import CertifiedWitness, realize

# (r, c, d) of every route: simple, preprojective, echelon, two covers (the
# second with a sink of dimension 2) and a shift
ROUTE_TYPES = [(3, 1, 0), (3, 2, 1), (2, 1, 3), (3, 2, 2), (3, 3, 2), (3, 6, 4), (3, 8, 5)]


@lru_cache(maxsize=None)
def _witness_texts() -> tuple[str, ...]:
    texts = [realize(r, c, d, mode=mode).to_json_str()
             for r, c, d in ROUTE_TYPES for mode in ("ekp", "eip")]
    q = build_source_regular(3, 4)
    tree = build_indecomposable_tree_rep(q, build_root_vector(q, 4, 10), field=GF(5))
    texts.append(json.dumps({"rep": push_down(tree).to_json(), "tree": tree.to_json()}))
    return tuple(texts)


def witnesses():
    """Fresh JSON objects of every witness: each holds "rep" and, but for echelon, "tree"."""
    return [json.loads(t) for t in _witness_texts()]


# ---------------------------------------------------------------------------
# corruptions: each spoils one field of a witness in place, or returns False
# where the witness has no such field
# ---------------------------------------------------------------------------

def _vertex_with(tree, color):
    return next((v for v in tree["vertices"] if color in v["addr"]), None)


def _edge_with(tree, end, color):
    return next((e for e in tree["edges"] if color in e[end]), None)


def _set_first(items, pred, update):
    item = next((x for x in items if pred(x)), None)
    if item is None:
        return False
    update(item)
    return True


def _has(target, key):
    return key in target if isinstance(target, dict) else -len(target) <= key < len(target)


def _put(path, value):
    """Set the field at ``path`` (keys and indices from the witness) to ``value``."""
    def spoil(w):
        target = w
        for key in path[:-1]:
            if not _has(target, key):
                return False
            target = target[key]
        if isinstance(target, list) and not _has(target, path[-1]):
            return False
        target[path[-1]] = value
        return True
    return spoil


def _in_word(end, new):
    """Replace a color 1 in a tree vertex address or edge end by ``new``."""
    def spoil(w):
        tree = w.get("tree")
        if tree is None:
            return False
        item = _vertex_with(tree, 1) if end == "addr" else _edge_with(tree, end, 1)
        if item is None:
            return False
        item[end][item[end].index(1)] = new
        return True
    return spoil


def _last_addr(make):
    def spoil(w):
        tree = w.get("tree")
        if tree is None or not tree["vertices"][-1]["addr"]:
            return False
        v = tree["vertices"][-1]
        v["addr"] = make(v["addr"], tree["r"])
        return True
    return spoil


def _last_end(end, make):
    def spoil(w):
        tree = w.get("tree")
        if tree is None or not tree["edges"]:
            return False
        e = tree["edges"][-1]
        e[end] = make(e[end], tree["r"])
        return True
    return spoil


def _duplicate(key):
    def spoil(w):
        tree = w.get("tree")
        if tree is None or not tree[key]:
            return False
        tree[key].append(copy.deepcopy(tree[key][-1]))
        return True
    return spoil


def _non_adjacent_dst(w):
    tree = w.get("tree")
    if tree is None or not tree["edges"]:
        return False
    e = tree["edges"][0]
    c = e["dst"][-1] if e["dst"] else 1
    e["dst"] = e["dst"] + [c % tree["r"] + 1, c]
    return True


def _unlisted(end):
    """An edge between a listed vertex and a neighbor that is not listed."""
    def spoil(w):
        tree = w.get("tree")
        if tree is None:
            return False
        listed = {tuple(v["addr"]) for v in tree["vertices"]}
        for v in tree["vertices"]:
            free = [x for x in neighbors(tuple(v["addr"]), tree["r"]) if x not in listed]
            if free:
                src, dst = (list(free[0]), v["addr"]) if end == "src" else (v["addr"], list(free[0]))
                tree["edges"].append({"src": src, "dst": dst, "mat": [["1"]] * v["dim"]})
                return True
        return False
    return spoil


def _color(make, want_color=None):
    def spoil(w):
        tree = w.get("tree")
        if tree is None:
            return False
        def has(e):
            return want_color is None or e.get("color") == want_color
        return _set_first(tree["edges"], has, lambda e: e.update(color=make(e["color"], tree["r"])))
    return spoil


def _drop_colors(w):
    tree = w.get("tree")
    if tree is None or not tree["edges"]:
        return False
    for e in tree["edges"]:
        del e["color"]
    return True


def _mat_entry(value, where="tree"):
    """Set the first entry of the first non-empty matrix of the tree or the rep."""
    def spoil(w):
        mats = ([e["mat"] for e in w["tree"]["edges"]] if where == "tree" and "tree" in w
                else w["rep"]["mats"] if where == "rep" else [])
        return _set_first(mats, lambda m: m and m[0], lambda m: m[0].__setitem__(0, value))
    return spoil


def _mat_shape(where):
    def spoil(w):
        mats = ([e["mat"] for e in w["tree"]["edges"]] if where == "tree" and "tree" in w
                else w["rep"]["mats"] if where == "rep" else [])
        return _set_first(mats, lambda m: m and m[0], lambda m: m[0].append("0"))
    return spoil


def _two_bad_fields(w):
    """A bad last vertex and a bad first edge: the vertex comes first in file order."""
    tree = w.get("tree")
    if tree is None or not tree["edges"]:
        return False
    tree["vertices"][-1]["addr"] = [0]
    tree["edges"][0]["src"] = [True]
    return True


def _extra_key(w):
    tree = w.get("tree")
    if tree is None:
        return False
    tree["vertices"][0]["note"] = "ignored"
    return True


CORRUPTIONS = {
    # wrong JSON types
    "tree-r-str": _put(("tree", "r"), "3"),
    "tree-r-true": _put(("tree", "r"), True),
    "tree-vertices-dict": _put(("tree", "vertices"), {}),
    "tree-edges-str": _put(("tree", "edges"), "edges"),
    "tree-vertex-list": _put(("tree", "vertices", 0), []),
    "tree-edge-str": _put(("tree", "edges", 0), "edge"),
    "tree-edge-no-mat": lambda w: _set_first(w.get("tree", {}).get("edges", []), lambda e: True,
                                             lambda e: e.pop("mat")),
    "tree-field-not-prime": _put(("tree", "field"), {"type": "GF", "p": 4}),
    "addr-str": _put(("tree", "vertices", 0, "addr"), ""),
    "addr-dict": _put(("tree", "vertices", 0, "addr"), {}),
    "addr-int": _put(("tree", "vertices", -1, "addr"), 1),
    "dim-str": _put(("tree", "vertices", 0, "dim"), "1"),
    "dim-true": _put(("tree", "vertices", 0, "dim"), True),
    "dim-float": _put(("tree", "vertices", 0, "dim"), 1.0),
    "dim-zero": _put(("tree", "vertices", -1, "dim"), 0),
    "src-str": _put(("tree", "edges", 0, "src"), ""),
    "dst-dict": _put(("tree", "edges", -1, "dst"), {}),
    # colors out of range, repeated, nested; True and 1.0 for 1
    "addr-color-0": _last_addr(lambda a, r: a[:-1] + [0]),
    "addr-color-r+1": _last_addr(lambda a, r: a[:-1] + [r + 1]),
    "addr-repeated": _last_addr(lambda a, r: [1, 1]),
    "addr-nested": _last_addr(lambda a, r: [a]),
    "src-color-0": _last_end("src", lambda a, r: a + [0]),
    "dst-color-r+1": _last_end("dst", lambda a, r: a + [r + 1]),
    "src-repeated": _last_end("src", lambda a, r: a + a[-1:] * 2 if a else [2, 2]),
    "dst-nested": _last_end("dst", lambda a, r: [a]),
    "addr-true": _in_word("addr", True),
    "addr-float": _in_word("addr", 1.0),
    "src-true": _in_word("src", True),
    "src-float": _in_word("src", 1.0),
    "dst-true": _in_word("dst", True),
    "dst-float": _in_word("dst", 1.0),
    # duplicates, adjacency, membership
    "duplicate-vertex": _duplicate("vertices"),
    "duplicate-edge": _duplicate("edges"),
    "non-adjacent-dst": _non_adjacent_dst,
    "unlisted-src": _unlisted("src"),
    "unlisted-dst": _unlisted("dst"),
    # edge colors
    "color-wrong": _color(lambda c, r: c % r + 1),
    "color-true": _color(lambda c, r: True, want_color=1),
    "color-float": _color(lambda c, r: float(c)),
    "color-str": _color(lambda c, r: str(c)),
    # matrices: shape and entries, then valid but non-canonical entries
    "tree-mat-shape": _mat_shape("tree"),
    "tree-mat-rows": _put(("tree", "edges", 0, "mat"), {}),
    "tree-mat-entry-int": _mat_entry(1),
    "tree-mat-entry-text": _mat_entry("x"),
    "tree-mat-entry-zero-division": _mat_entry("1/0"),
    "rep-r-str": _put(("rep", "r"), "3"),
    "rep-dim-str": _put(("rep", "dim"), "2,5"),
    "rep-mats-dict": _put(("rep", "mats"), {}),
    "rep-mat-shape": _mat_shape("rep"),
    "rep-mat-entry-int-zero": _mat_entry(0, "rep"),
    "rep-mat-entry-true": _mat_entry(True, "rep"),
    "rep-mat-entry-float": _mat_entry(1.0, "rep"),
    "rep-mat-entry-nested": _mat_entry(["1"], "rep"),
    "rep-field-unknown": _put(("rep", "field"), {"type": "R"}),
    "tree-entry-2/4": _mat_entry("2/4"),
    "tree-entry-+1": _mat_entry("+1"),
    "tree-entry-007": _mat_entry("007"),
    "rep-entry-2/4": _mat_entry("2/4", "rep"),
    "rep-entry-+1": _mat_entry("+1", "rep"),
    "rep-entry-007": _mat_entry("007", "rep"),
    "rep-entry--0": _mat_entry("-0", "rep"),
    # valid files that are not as the writer writes them
    "no-colors": _drop_colors,
    "extra-key": _extra_key,
    # two bad fields: the first in file order is named
    "two-bad-fields": _two_bad_fields,
}


def outcome(read, d):
    """The JSON of what ``read`` returns, or the message of the ValueError it raises."""
    try:
        obj = read(copy.deepcopy(d))
    except ValueError as exc:
        return "ValueError", str(exc)
    return "read", obj.to_json_str()


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_one_pass_readers_match_the_field_by_field_ones(name):
    applied = 0
    for w in witnesses():
        if not CORRUPTIONS[name](w):
            continue
        applied += 1
        got = outcome(KroneckerRep.from_json, w["rep"])
        assert got == outcome(reference_rep_from_json, w["rep"]), (name, got)
        if "tree" in w:
            got = outcome(TreeRep.from_json, w["tree"])
            assert got == outcome(reference_tree_from_json, w["tree"]), (name, got)
    assert applied, f"{name} applies to no witness"


def test_every_route_is_read_in_one_pass(monkeypatch):
    def walk(d):
        raise AssertionError("a valid tree reached the field-by-field walk")
    monkeypatch.setattr(cover, "_read_tree_fields", walk)
    for w in witnesses():
        read = CertifiedWitness.from_json(w) if "jordan" in w else None
        tree = TreeRep.from_json(w["tree"]) if "tree" in w else None
        assert tree is None or tree == reference_tree_from_json(w["tree"])
        assert read is None or read.rep == reference_rep_from_json(w["rep"])


def test_a_member_with_true_for_1_is_not_a_word():
    # [True] and [1.0] hash and compare equal to the listed [1], so only a
    # type check tells them apart
    tree = {"r": 2, "vertices": [{"addr": [], "dim": 1}, {"addr": [1], "dim": 1}],
            "edges": [{"src": [], "dst": [1], "color": 1, "mat": [["1"]]}]}
    assert TreeRep.from_json(tree).maps
    for one in (True, 1.0):
        tree["edges"][0]["dst"] = [one]
        with pytest.raises(ValueError, match="tree edge field 'dst' must be a list of colors"):
            TreeRep.from_json(tree)


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("data", [[["1", 2]], [["1", True]], [["1", 1.0]], [["1", None]],
                                  [["1", ["2"]]], [["x", "0"]], [["1", "0"]], [["0", "00"]],
                                  [["1/2", "3"]], [["1"]], [["1", "2"], ["3"]], "1 2", [("1", "2")]])
def test_matrix_parser_matches_the_three_pass_one(field, data):
    def read(f):
        try:
            return f(field, copy.deepcopy(data), 1, 2, "m").sparse_rows()
        except ValueError as exc:
            return str(exc)
    assert read(ExactMatrix.from_str_lists) == read(reference_from_str_lists)


def test_the_shared_zero_arrow_is_rendered_once(monkeypatch):
    r = 2**12
    rep = push_down(TreeRep(r, {(): 1, (5,): 1}, {((), (5,)): ExactMatrix.identity(QQ, 1)}))
    want = json.dumps([m.to_str_lists() for m in rep.mats])
    calls = []
    real = ExactMatrix.to_str_lists
    monkeypatch.setattr(ExactMatrix, "to_str_lists", lambda m: calls.append(m) or real(m))
    assert json.dumps(rep.to_json()["mats"]) == want
    # arrow 5 and the one zero matrix every other color shares
    assert len(calls) == 2
    assert rep.mats[4] == ExactMatrix.identity(QQ, 1)


def test_a_bad_arrow_beside_a_shared_one_is_still_checked():
    zero = ExactMatrix.zeros(QQ, 2, 1)
    with pytest.raises(ValueError, match="matrix shape"):
        KroneckerRep(3, (1, 2), (zero, ExactMatrix.zeros(QQ, 1, 1), zero))
    with pytest.raises(ValueError, match="field"):
        KroneckerRep(3, (1, 2), (zero, zero, ExactMatrix.zeros(GF(2), 2, 1)))
