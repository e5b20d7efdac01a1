"""Witness JSON is pinned: the SHA-256 of every small witness's JSON text.

``witness_digests.json`` holds the digest of ``realize(r, c, d, mode).to_json_str()``
for every realizable (r, c, d) with r = 2..5 and 2d + c <= 30, in ekp and
eip mode.  A change that alters witness JSON on purpose re-records it,

    PYTHONPATH=src python tests/test_witness_digests.py --record

and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "witness_digests.json")
RS = (2, 3, 4, 5)
MAX_WEIGHT = 30   # bound on 2d + c, the total dimension a + b


def witness_keys():
    """(r, c, d, mode) for every realizable type in range, in a fixed order."""
    from kronjord.pipeline import classify

    for r in RS:
        for d in range(MAX_WEIGHT // 2 + 1):
            for c in range(MAX_WEIGHT - 2 * d + 1):
                if classify(r, c, d).accepted:
                    yield from ((r, c, d, mode) for mode in ("ekp", "eip"))


def witness_digests() -> dict[str, str]:
    from kronjord.pipeline import realize

    return {f"{r},{c},{d},{mode}":
            hashlib.sha256(realize(r, c, d, mode=mode).to_json_str().encode()).hexdigest()
            for r, c, d, mode in witness_keys()}


def test_witness_json_matches_the_recorded_digests():
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    current = witness_digests()
    assert current.keys() == recorded.keys()
    changed = sorted(k for k in recorded if current[k] != recorded[k])
    assert not changed, f"{len(changed)} witnesses changed JSON, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    table = witness_digests()
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} witness digests in {DIGESTS}")
