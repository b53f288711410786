"""One owner per number: each canonical metric is recorded at one site.

A site is the one function in ``src/`` that either pushes the name into
the registry (``reg.counter(NAME)``, ``.histogram``) or
yields it from a stats object the registry watches
(``yield NAME, labels, value``).  A second site would count the same
thing twice, paid twice on the control path.
"""

import ast
from collections import defaultdict
from pathlib import Path

from repro.obs import names

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
INSTRUMENTS = {"counter", "histogram"}


def _metric(node):
    """The metric a name expression denotes (``obs_names.X`` or ``X``)."""
    ident = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    value = getattr(names, ident, None) if ident else None
    return value if value in names.ALL_METRICS else None


def _recording_sites():
    sites = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            site = f"{path.relative_to(SRC)}::{func.name}"
            for node in ast.walk(func):
                metric = None
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in INSTRUMENTS
                    and node.args
                ):
                    metric = _metric(node.args[0])
                elif isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple):
                    metric = _metric(node.value.elts[0])
                if metric:
                    sites[metric].add(site)
    return sites


def test_every_metric_is_recorded_at_exactly_one_site():
    sites = _recording_sites()
    wrong = {
        name: sorted(sites.get(name, ()))
        for name in names.ALL_METRICS
        if len(sites.get(name, ())) != 1
    }
    assert not wrong, f"metrics recorded at zero or several sites: {wrong}"


def test_the_guard_sees_both_kinds_of_site():
    sites = _recording_sites()
    assert sites[names.KMR_SOLVES] == {"core/solver.py::solve_with_stats"}
    assert sites[names.INGRESS_EVENTS] == {"ingress/plane.py::samples"}
    assert sites[names.MCKP_CLASS_SWEEPS] == {"core/mckp.py::samples"}
