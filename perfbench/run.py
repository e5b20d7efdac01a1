"""kronjord benchmark: realize and validate by route, with layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports kronjord from ``src/``.  The
workloads and the reason each was chosen are listed in BENCHMARK.json.
One process, one thread.  A run is closed-loop: the next operation starts
when the previous one has returned.

An operation is one ``realize`` call (with the witness serialized to JSON
text), or one validation: ``json.loads`` of that text plus
``validate_witness``.  On modp-verify an operation is the verification of
one prime-field representation; the representation is built by the
public constructors, and serialized to JSON text, just before it.

``--trace 0`` repeats passes over the seed's inputs until ``--seconds``
have elapsed and prints the end-to-end metrics.  Each operation's time is
scaled to the machine's nominal speed with ``calibration.py``, and an
input's time is the median over its repeats, so sums cover exactly one
pass.  ``--trace 1``
runs each input untraced and then traced, then the first input traced
once more, and prints the per-layer metrics of the traced pass.  Its
spans are written to ``.perfbench_out/``.

Every output goes through ``oracle.py``; any failure counts as failed,
and the last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import oracle  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Item, ModpItem  # noqa: E402

SETUP_REPS = 21
CAL_EVERY_S = 0.1     # least time between two runs of the calibration kernel
BUILD_REPS = 5      # GF(p) builds take about a millisecond: repeat them more
MODP_SAMPLES = 100
ORACLE_SEED = 0x5EED
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
ROUTES = ("simple", "preprojective", "echelon", "cover", "shift")
DIGESTS = os.path.join(HERE, "digests.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")


def import_kronjord():
    """Import kronjord and kronjord.cli from this checkout's src/, or exit 1."""
    sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("kronjord")
        importlib.import_module("kronjord.cli")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import kronjord from {SRC}: {exc}")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: kronjord was imported from {pkg.__file__}, not from {SRC}")
    return pkg


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs deck inputs, times each operation and checks each output.

    With ``calibrate``, the calibration kernel runs after an operation
    whenever CAL_EVERY_S has passed since it last ran, and each run of it
    is kept as (start, seconds) in ``cal``.
    """

    def __init__(self, kj, tracer: Tracer | None = None, calibrate: bool = False):
        self.kj = kj
        self.tracer = tracer
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.write: dict[int, list[tuple[float, float]]] = {}   # deck index -> (start, seconds)
        self.read: dict[int, list[tuple[float, float]]] = {}
        self.latencies: list[float] = []
        self.digests: dict[int, str] = {}
        self.cal: list[tuple[float, float]] = []
        self._last_cal = -math.inf

    def _span(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}: {detail}", file=sys.stderr)

    def _op(self, index: int, side: str, fn):
        """Time one step; returns fn's result, or None if it raised.

        Every step except "build" is an operation: it counts as attempted
        and its latency is a sample.  A failed build fails the verification
        that needed it.
        """
        counted = side != "build"
        self.attempted += counted
        if self.tracer is not None:
            self.tracer.current_op += 1
        t0 = time.perf_counter()
        try:
            res = self._span(f"op.{side}", fn)
        except Exception:  # a failing operation is counted, never dropped
            self._fail(f"input {index} {side}", traceback.format_exc(limit=3))
            return None
        dt = time.perf_counter() - t0
        if counted:
            self.latencies.append(dt)
        (self.write if side in ("realize", "build") else self.read).setdefault(
            index, []).append((t0, dt))
        if self.calibrate and time.perf_counter() - self._last_cal >= CAL_EVERY_S:
            c0 = time.perf_counter()
            self.cal.append((c0, calibration.measure()))
            self._last_cal = time.perf_counter()
        return res

    def run(self, index: int, item) -> None:
        if isinstance(item, ModpItem):
            self._run_modp(index, item)
        else:
            self._run_realize(index, item)

    def _run_realize(self, index: int, it: Item) -> None:
        pipeline = self.kj.pipeline

        def write():
            w = self._span(f"pipeline.realize.{it.route}", pipeline.realize,
                           it.r, it.c, it.d, mode=it.mode, seed=it.seed)
            return self._span("pipeline.json", w.to_json_str)

        text = self._op(index, "realize", write)
        if text is None:
            self.attempted += 1
            self._fail(f"input {index} validate", "no witness to validate")
            return
        self.digests[index] = digest(text)
        rng = random.Random(ORACLE_SEED + index)
        wrong = oracle.check_witness(json.loads(text), it.r, it.c, it.d, it.mode, rng)
        if wrong:
            self._fail(f"input {index} realize {it}", "; ".join(wrong))

        def read():
            data = self._span("pipeline.json", json.loads, text)
            return pipeline.validate_witness(data, seed=it.vseed)

        verdict = self._op(index, "validate", read)
        if verdict is not None and not verdict[0]:
            self._fail(f"input {index} validate {it}", f"rejected: {verdict[1]}")

    def _run_modp(self, index: int, it: ModpItem) -> None:
        kj = self.kj
        def write():
            rep = build_modp(kj, it)
            return rep, rep.to_json_str()

        for _ in range(1 if self.tracer is not None else BUILD_REPS):
            built = self._op(index, "build", write)
            if built is None:
                self.attempted += 1
                return
        rep, text = built
        self.digests[index] = digest(text)

        def verify():
            v = kj.verify
            return {
                "hom": v.hom_space(rep, rep).dim,
                "brick": v.is_brick(rep),
                "ext": v.ext_dim(rep, rep),
                "ekp": v.ekp_sample_check(rep, MODP_SAMPLES, it.seed),
                "generic_rank": kj.kronecker.generic_rank(rep, MODP_SAMPLES, it.seed)[0],
            }

        result = self._op(index, "verify", verify)
        if result is None:
            return
        a, b = rep.dim
        wrong = oracle.check_modp(result, it.r, a, b, it.double)
        if wrong:
            self._fail(f"input {index} verify {it}", "; ".join(wrong))


def digest(text: str) -> str:
    """The witness digest stored in digests.json: 16 hex digits of SHA-256."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_modp(kj, it: ModpItem):
    """The representation a modp input names, built with the public constructors."""
    field = kj.exactmat.GF(it.p)
    if it.kind == "echelon":
        rep = kj.echelon.build_echelon_rep(kj.echelon.select_phi(it.r, it.a, it.b), field)
    else:
        quiver = kj.cover.build_source_regular(it.r, it.a)
        alpha = kj.cover.build_root_vector(quiver, it.a, it.b)
        tree = kj.cover.build_indecomposable_tree_rep(quiver, alpha, field=field)
        rep = kj.cover.push_down(tree)
    return kj.kronecker.direct_sum(rep, rep) if it.double else rep


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    With fewer than 21 samples no percentile qualifies, and the slowest
    sample (p100) is used.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        k = max(0, math.ceil(p / 100 * n) - 1)
        if n - 1 - k >= 10:
            return p, xs[k]
    return 100.0, xs[-1]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup = [setup_probe_child(workload, seed) for _ in range(SETUP_REPS)]
    kj = import_kronjord()
    deck = WORKLOADS[workload](seed)
    runner = Runner(kj, calibrate=True)
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < seconds:
        for index, item in enumerate(deck):
            if passes > 0 and time.perf_counter() - t0 >= seconds:
                break
            runner.run(index, item)
        passes += 1
    elapsed = time.perf_counter() - t0

    # The shared machine runs up to twice as slow, in bursts of a fraction
    # of a second to minutes, and all Python work slows with it.  So each
    # operation's time is divided by the mean time of the calibration runs
    # just before and just after it, which saw the same burst, and scaled
    # to the kernel's nominal time.  An input's time is the median of these
    # over its repeats, so the sums cover exactly one pass.
    starts = [c0 for c0, _ in runner.cal]
    kernel = [c for _, c in runner.cal]

    def nominal(t: float, dt: float) -> float:
        j = bisect.bisect_left(starts, t)
        near = kernel[max(0, j - 1):j + 1]
        return dt * calibration.NOMINAL_S * len(near) / sum(near)

    def per_input(side: dict) -> tuple[list[float], float]:
        times = [statistics.median(nominal(t, dt) for t, dt in ts) for ts in side.values()]
        raw = sum(statistics.median(dt for _, dt in ts) for ts in side.values())
        return times, raw

    write, raw_write = per_input(runner.write)
    read, raw_read = per_input(runner.read)
    write_s, read_s = sum(write), sum(read)
    ops = read if workload == "modp-verify" else write + read
    pct, tail_s = tail(ops)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# {workload} seed={seed}: {len(deck)} inputs, {passes} passes (last may be partial), "
          f"{runner.attempted} operations in {elapsed:.2f} s")
    print(f"# latency over {len(ops)} distinct operations, tail percentile p{pct:g}; "
          f"fewest repeats of an input {min(len(ts) for ts in runner.read.values())}; "
          f"{len(setup)} set-ups: min {min(setup):.4f} s, max {max(setup):.4f} s")
    print(f"# calibration: {len(kernel)} runs, best {min(kernel) * 1e3:.2f} ms, median "
          f"{statistics.median(kernel) * 1e3:.2f} ms, nominal {calibration.NOMINAL_S * 1e3:g} ms; "
          f"unscaled realize_s {raw_write:.6g}, validate_s {raw_read:.6g}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "realize_s": (write_s, "s"),
        "validate_s": (read_s, "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mib": (peak, "MiB"),
        "ok_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
    }
    return result(runner, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def setup_probe_child(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit("perfbench: the set-up probe failed")
    return float(out.stdout.strip().splitlines()[-1])


def setup_probe(workload: str, seed: int) -> None:
    """Child side: time a fresh import of kronjord plus input generation."""
    t0 = time.perf_counter()
    import_kronjord()
    WORKLOADS[workload](seed)
    print(repr(time.perf_counter() - t0))


def result(runner: Runner, metrics: dict, extra_ok: bool = True) -> dict:
    return {"correct": runner.failed == 0 and extra_ok, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run and per-layer metrics
# ---------------------------------------------------------------------------

EXACT_COUNTS = ("exactmat.sparse_echelon.calls", "exactmat.sparse_echelon.rows",
                "exactmat.sparse_echelon.cols", "exactmat.sparse_echelon.nnz",
                "exactmat.sparse_echelon.pivots", "exactmat.sparse_echelon.max_coeff_bits",
                "verify.end_dim.max", "verify.end_dim.sum", "kronecker.pencil.calls")


def layer_metrics(tr: Tracer, ops: set[int]) -> dict:
    """Per-layer metrics over the spans of the given operations."""
    present = {name for name, *_ in TARGETS} - tr.absent
    present |= {f"pipeline.realize.{r}" for r in ROUTES} | {"pipeline.json", "op"}
    dur = tr.durations()
    selft = tr.self_times()
    names = tr.names
    sampled = [False] * len(names)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    sums: dict[str, float] = {}
    maxes: dict[str, int] = {}
    end_dims: list[int] = []
    local_self = 0.0
    local_minus_hom = 0.0
    hom_bits = 0
    in_hom = [False] * len(names)
    pencils_sampled = 0
    op_total = 0.0
    for i, name in enumerate(names):
        p = tr.parent[i]
        sampled[i] = p >= 0 and (sampled[p] or names[p].startswith("sampled."))
        in_hom[i] = p >= 0 and (in_hom[p] or names[p] == "verify.hom_space")
        if tr.op[i] not in ops:
            continue
        if name.startswith("op."):
            if name != "op.build":   # GF(p) construction is not an operation
                op_total += dur[i]
            continue
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        if name == "kronecker.pencil" and sampled[i]:
            pencils_sampled += 1
        if name == "verify.end_is_local":
            local_self += selft[i]
            local_minus_hom += dur[i]
        elif name == "verify.hom_space" and p >= 0 and names[p] == "verify.end_is_local":
            local_minus_hom -= dur[i]
        if in_hom[i] and name == "exactmat.sparse_echelon":
            hom_bits = max(hom_bits, tr.attrs.get(i, {}).get("max_coeff_bits", 0))
        for key, v in tr.attrs.get(i, {}).items():
            if key == "end_dim":
                if p >= 0 and names[p] == "verify.end_is_local":
                    end_dims.append(v)
            elif key == "max_coeff_bits":
                maxes[f"{name}.{key}"] = max(maxes.get(f"{name}.{key}", 0), v)
            else:
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + v

    out: dict[str, tuple[float, str]] = {}

    def put(metric: str, value, unit: str, *sources: str) -> None:
        if any(s in present for s in sources):
            out[metric] = (value, unit)

    def layer(name: str, *fields: str) -> None:
        for f in fields:
            if f == "calls":
                put(f"{name}.calls", calls.get(name, 0), "count", name)
            elif f == "s":
                put(f"{name}.s", total.get(name, 0.0), "s", name)
            elif f == "max_coeff_bits":
                put(f"{name}.{f}", maxes.get(f"{name}.{f}", 0), "bits", name)
            else:
                put(f"{name}.{f}", sums.get(f"{name}.{f}", 0), "count", name)

    sampled_names = ("sampled.ekp", "sampled.eip", "sampled.cjt", "sampled.restriction")
    sampled_s = sum(total.get(n, 0.0) for n in sampled_names)
    layer("verify.end_is_local", "s")
    put("verify.end_is_local.self_s", local_self, "s", "verify.end_is_local")
    put("verify.end_is_local.minus_hom_s", local_minus_hom, "s", "verify.end_is_local")
    put("verify.end_dim.max", max(end_dims, default=0), "count", "verify.hom_space")
    put("verify.end_dim.sum", sum(end_dims), "count", "verify.hom_space")
    layer("verify.hom_space", "calls", "s", "unknowns", "equations")
    put("verify.hom_space.max_coeff_bits", hom_bits, "bits", "exactmat.sparse_echelon")
    layer("exactmat.sparse_echelon", "calls", "s", "rows", "cols", "nnz", "pivots", "max_coeff_bits")
    layer("exactmat.rank", "calls", "s")
    layer("exactmat.solve", "calls", "s")
    layer("exactmat.matmul", "calls", "s")
    layer("exactmat.dense_gf", "calls", "s", "cells")
    put("verify.sampled.s", sampled_s, "s", *sampled_names)
    put("verify.sampled.pencils", pencils_sampled, "count", "kronecker.pencil")
    layer("kronecker.pencil", "calls", "s")
    layer("kronecker.generic_rank", "calls", "s")
    layer("cover.build", "s")
    layer("cover.push_down", "s")
    layer("cover.is_inj", "s")
    put("cover.tree_vertices", sums.get("cover.build.tree_vertices", 0), "count", "cover.build")
    layer("bgp.tau_inverse", "calls", "s")
    layer("bgp.reflect", "calls")
    layer("bgp.preprojective", "s")
    layer("echelon.build", "s")
    layer("echelon.certificate", "s")
    layer("verify.ext_dim", "s")
    layer("verify.is_brick", "s")
    layer("pipeline.classify", "s")
    for r in ROUTES:
        layer(f"pipeline.realize.{r}", "s")
    layer("pipeline.validate", "s")
    layer("pipeline.json", "s")
    # shares of the traced pass's operation time, the base of each ratio
    put("trace.op_s", op_total, "s", "op")
    base = op_total or 1.0
    put("verify.sampled.share", sampled_s / base, "ratio", *sampled_names)
    put("verify.hom_space.share", total.get("verify.hom_space", 0.0) / base, "ratio",
        "verify.hom_space")
    put("verify.end_is_local.minus_hom_share", local_minus_hom / base, "ratio",
        "verify.end_is_local")
    put("exactmat.dense_gf.share", total.get("exactmat.dense_gf", 0.0) / base, "ratio",
        "exactmat.dense_gf")
    return out


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def traced(workload: str, seed: int) -> dict:
    kj = import_kronjord()
    deck = WORKLOADS[workload](seed)
    digests = load_digests().get(workload, {})

    # each input runs untraced and then traced, back to back, so the
    # overhead estimate compares runs in the same phase of the machine
    untraced = Runner(kj)
    tr = Tracer()
    runner = Runner(kj, tr)
    for index, item in enumerate(deck):
        untraced.run(index, item)
        tr.install()
        try:
            runner.run(index, item)
        finally:
            tr.uninstall()
    pass_ops = set(range(tr.current_op + 1))
    plain_s, traced_s = sum(untraced.latencies), sum(runner.latencies)
    tr.install()
    try:
        runner.run(0, deck[0])
    finally:
        tr.uninstall()
    repeat_ops = set(range(max(pass_ops) + 1, tr.current_op + 1))

    metrics = layer_metrics(tr, pass_ops)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    changed = sum(1 for i, item in enumerate(deck)
                  if runner.digests.get(i) != digests.get(item.key))
    metrics["pipeline.witness_json_changed"] = (changed, "count")

    checks_ok = True
    first = layer_metrics(tr, set(range(len(repeat_ops))))
    again = layer_metrics(tr, repeat_ops)
    for name in EXACT_COUNTS:
        if first.get(name) != again.get(name):
            checks_ok = False
            print(f"perfbench: exact count {name} differs between two runs of input 0: "
                  f"{first.get(name)} vs {again.get(name)}", file=sys.stderr)
    nesting = tr.nesting_errors()
    for err in nesting:
        print(f"perfbench: span nesting: {err}", file=sys.stderr)
    checks_ok = checks_ok and not nesting and untraced.failed == 0

    os.makedirs(TRACE_DIR, exist_ok=True)
    tr.dump(os.path.join(TRACE_DIR, f"trace-{workload}-{seed}.json"))
    if tr.absent:
        print(f"# absent layers (not reported): {sorted(tr.absent)}")
    shares = {k: v for k, (v, _) in metrics.items() if k.endswith("share")}
    if shares:
        print(f"# dominant layer: {max(shares, key=shares.get)} "
              f"({max(shares.values()):.3f} of {metrics['trace.op_s'][0]:.3f} s)")
    print(f"# {len(tr.names)} spans; {len(pass_ops)} traced operations; "
          f"untraced pass {plain_s:.3f} s")
    res = result(runner, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, checks_ok)
    res["attempted"] += untraced.attempted
    res["failed"] += untraced.failed
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.trace:
        res = traced(args.workload, args.seed)
    else:
        res = end_to_end(args.workload, args.seed, args.seconds)
    for name, m in res["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
