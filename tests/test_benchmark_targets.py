"""The whole-system benchmark's wrap targets name live code.

``benchmarks/system/workloads.py`` times each layer by wrapping the
``module:qualname`` entries of its ``*_TARGETS`` tuples.  A target that
no longer resolves times nothing, silently.  The tuples are read with
``ast`` (the workloads module itself is not imported) and each target
is resolved by import plus ``getattr``.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "system" / "workloads.py"

#: Targets the benchmark still wraps that the code no longer defines.
#: ``layout_topology_detail`` was deleted when ``array_topology_detail``
#: became the only topology serialiser; the benchmark change that
#: re-points the wrap removes it here.
STALE = {"repro.obs.topology:layout_topology_detail"}


def wrap_targets():
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.AnnAssign):
            names, value = [node.target], node.value
        elif isinstance(node, ast.Assign):
            names, value = node.targets, node.value
        else:
            continue
        if any(isinstance(n, ast.Name) and n.id.endswith("_TARGETS") for n in names):
            yield from (entry[0] for entry in ast.literal_eval(value))


def resolves(target: str) -> bool:
    module, qualname = target.split(":")
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return False
    return callable(obj)


def test_every_wrap_target_resolves_except_the_pinned_stale_ones():
    targets = list(wrap_targets())
    assert len(targets) > len(STALE)
    assert {t for t in targets if not resolves(t)} == STALE
