"""Every function the benchmark tracer patches still exists under its traced name.

``perfbench/tracing.py`` records a renamed or deleted target as absent and
drops its layer metrics instead of failing; this test makes such a rename
fail in the tier-1 suite.  The tracer module is loaded from its file and
only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_path_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for name, modname, path, _ in targets:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {modname}.{path}")
    assert missing == []
