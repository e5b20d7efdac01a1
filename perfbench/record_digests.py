"""Record the witness digests that ``pipeline.witness_json_changed`` compares with.

    python3 perfbench/record_digests.py

Realizes every input of every workload (every case, in each of its
modes) and writes the first 16 hex digits of the SHA-256 of each
witness's JSON text to perfbench/digests.json.  For modp-verify the
digest is that of the built representation's JSON.  The committed file
was recorded from the code the benchmark was introduced with; re-record
it only on purpose.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from run import DIGESTS, build_modp, digest, import_kronjord  # noqa: E402


def realize_keys():
    for name in ("sweep-small", "brick-mid", "local-end"):
        for item in wl.WORKLOADS[name](0):
            yield name, item.r, item.c, item.d, item.mode, item.seed


def modp_digests(kj) -> dict:
    out = {}
    for kind, r, a, b, p, double in wl.MODP_SHAPES:
        item = wl.ModpItem(kind, r, a, b, p, double, 0)
        out[item.key] = digest(build_modp(kj, item).to_json_str())
    return out


def main() -> int:
    kj = import_kronjord()
    table: dict[str, dict[str, str]] = {name: {} for name in wl.WORKLOADS}
    table["modp-verify"] = modp_digests(kj)
    for workload, r, c, d, mode, seed in realize_keys():
        text = kj.pipeline.realize(r, c, d, mode=mode, seed=seed).to_json_str()
        key = wl.Item(r, c, d, "", mode, seed, 0).key
        table[workload][key] = digest(text)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(v) for v in table.values())} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
