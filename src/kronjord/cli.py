"""Command line interface.

Exit codes: 0 on success or acceptance, 2 when a Jordan type is rejected
by classification, 1 on errors, usage errors too.  Every command has --json.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys

from .kronecker import (
    KroneckerRep,
    classify_root,
    coxeter_apply,
    is_constant_jordan_type,
    is_in_ijt,
    tits_form,
    xi_inverse,
)
from .cover import TreeRep, push_down
from .pipeline import JordanTypeRejected, classify, realize, validate_witness
from .verify import ekp_sample_check, eip_sample_check, end_is_local, is_brick, restriction_check


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _cmd_classify(args) -> int:
    c, d = args.jordan
    cls = classify(args.r, c, d)
    if args.json:
        print(json.dumps(cls.to_json(), sort_keys=True))
    else:
        if cls.accepted:
            print(f"[1]^{c}[2]^{d} over Gamma_{args.r}: realizable, route {cls.route}, "
                  f"dimension vector {tuple(cls.dim)}")
        else:
            print(f"[1]^{c}[2]^{d} over Gamma_{args.r}: rejected, fails clause {cls.reason!r}")
    return 0 if cls.accepted else 2


def _cmd_realize(args) -> int:
    c, d = args.jordan
    try:
        witness = realize(args.r, c, d, mode=args.mode)
    except JordanTypeRejected as exc:
        if args.json:
            print(json.dumps({"accepted": False, "reason": exc.clause}, sort_keys=True))
        else:
            print(f"rejected: fails clause {exc.clause!r}")
        return 2
    payload = witness.to_json_str()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        if not args.json:
            print(f"witness written to {args.out}")
    if args.json or not args.out:
        print(payload if args.json else
              f"realized [1]^{c}[2]^{d}: dim {tuple(witness.rep.dim)}, "
              f"certificate {witness.ekp_certificate['kind']}, "
              f"evidence {witness.indec_evidence}")
        if not args.json and not args.out:
            print(payload)
    return 0


def _cmd_verify(args) -> int:
    with open(args.file) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object (a witness or a representation) in "
                         f"{args.file}, got {reprlib.repr(data)}")
    if "rep" in data:
        # a witness: validate_witness decides from (r, c, d) which certificates it needs
        for flag, value in (("--checks", args.checks), ("--samples", args.samples)):
            if value is not None:
                raise ValueError(f"{flag} applies to a bare representation, not to a witness")
        ok, results = validate_witness(data, seed=args.seed)
        report = {"checks": [{"name": name, "verdict": verdict}
                             for name, verdict in results.items() if name != "reason"],
                  "seed": args.seed}
        if "reason" in results:
            report["reason"] = results["reason"]
    else:
        rep = KroneckerRep.from_json(data)
        samples = 200 if args.samples is None else args.samples
        if samples < 1:
            raise ValueError(f"--samples must be at least 1, got {samples}")
        names = "ekp,cjt,indec,restriction" if args.checks is None else args.checks
        wanted = [s.strip() for s in names.split(",") if s.strip()]
        known = {"ekp", "eip", "cjt", "indec", "restriction"}
        if not wanted:
            raise ValueError(f"--checks names no check; choose from {sorted(known)}")
        for name in wanted:
            if name not in known:
                raise ValueError(f"unknown check {name!r}; choose from {sorted(known)}")
        if "cjt" in wanted and samples < 2:
            raise ValueError(f"--samples must be at least 2 for cjt, got {samples}")
        checks = []
        for name in wanted:
            if name == "ekp":
                verdict = ekp_sample_check(rep, samples, args.seed)
                detail = {"samples": samples, "seed": args.seed}
            elif name == "eip":
                verdict = eip_sample_check(rep, samples, args.seed)
                detail = {"samples": samples, "seed": args.seed}
            elif name == "cjt":
                verdict, jtype, record = is_constant_jordan_type(rep, samples, args.seed)
                detail = {"jordan": list(jtype) if jtype else None, "record": record}
            elif name == "indec":
                # a brick is indecomposable over any field; only a non-brick needs Q
                verdict = is_brick(rep) or end_is_local(rep)
                detail = {}
            else:
                verdict, rdetail = restriction_check(rep, samples, args.seed)
                detail = {"d": rdetail["d"], "c": rdetail["c"], "q": rdetail["q"]}
            checks.append({"name": name, "verdict": bool(verdict), "detail": detail})
        report = {"checks": checks, "seed": args.seed, "samples": samples}
        ok = all(chk["verdict"] for chk in checks)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for chk in report["checks"]:
            print(f"{chk['name']}: {'pass' if chk['verdict'] else 'FAIL'}")
        if "reason" in report:
            print(f"reason: {report['reason']}")
    return 0 if ok else 1


def _cmd_roots(args) -> int:
    rows = []
    for a in range(args.max + 1):
        for b in range(args.max + 1):
            if (a, b) == (0, 0):
                continue
            rc = classify_root(args.r, (a, b))
            entry = {
                "dim": [a, b],
                "q": tits_form(args.r, (a, b)),
                "kind": rc.kind,
                "position": rc.position,
            }
            if b >= a:
                c, d = xi_inverse(a, b)
                entry["jordan"] = [c, d]
                entry["in_ijt"] = is_in_ijt(args.r, c, d)[0]
            rows.append(entry)
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for e in rows:
            jt = f" jordan={tuple(e['jordan'])} ijt={e['in_ijt']}" if "jordan" in e else ""
            print(f"({e['dim'][0]},{e['dim'][1]}) q={e['q']} {e['kind']}/{e['position']}{jt}")
    return 0


def _cmd_coxeter(args) -> int:
    a, b = args.dim
    x, y = coxeter_apply(args.r, (a, b), args.power)
    if args.json:
        print(json.dumps({"input": [a, b], "power": args.power, "result": [x, y]}))
    else:
        print(f"Phi^{args.power} ({a},{b}) = ({x},{y})")
    return 0


def _cmd_pushdown(args) -> int:
    with open(args.treefile) as fh:
        tree = TreeRep.from_json(json.load(fh))
    rep = push_down(tree)
    payload = rep.to_json_str()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        if not args.json:
            print(f"push-down written to {args.out}")
    else:
        print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronjord",
        description="Realize and certify Jordan types [1]^c[2]^d over the r-Kronecker quiver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide realizability of a Jordan type")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--jordan", type=_parse_pair, required=True, metavar="C,D")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("realize", help="construct and certify a witness")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--jordan", type=_parse_pair, required=True, metavar="C,D")
    p.add_argument("--mode", choices=["ekp", "eip"], default="ekp")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="re-validate a witness, or check a bare representation")
    p.add_argument("file")
    p.add_argument("--checks", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("roots", help="root table with positions and IJT membership")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("coxeter", help="apply a power of the Coxeter matrix")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--dim", type=_parse_pair, required=True, metavar="A,B")
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_coxeter)

    p = sub.add_parser("pushdown", help="fold a tree representation onto the Kronecker quiver")
    p.add_argument("treefile")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pushdown)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means a rejected type
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
