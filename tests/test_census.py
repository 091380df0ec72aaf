"""Nothing in ``src/`` exists for tests alone.

A stdlib-``ast`` census of every public function, method and class in
``src/``. Each must pass one of three tests:

* its name is read somewhere in ``src/``, ``bench/`` or ``examples/``
  outside its own definition: as an identifier, an attribute, a string
  constant or an import (docstrings, comments and ``__all__`` do not
  count). An import counts, so a class a package exports stays; a
  method or helper that nothing calls does not;
* it is a method that overrides one of a base class's, as an asyncio
  protocol's ``connection_made`` does;
* it is in ``ALLOWLIST``, with the reason it stays.

A definition that fails all three has no caller but tests: delete it, or
give it a caller in the product.  ``python tests/test_census.py`` lists
the definitions that fail.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "bench", ROOT / "examples")

#: ``"<path under src/repro>::<qualified name>"`` -> why it stays. A paper
#: result names the ``tests/paper`` id that keeps it; the pool's entries
#: leave with ``core/parallel.py`` (ROADMAP item 2).
POOL = "the process pool's own suites; leaves with core/parallel.py"
ALLOWLIST = {
    "analysis/cdf.py::EmpiricalCDF.stochastically_dominates":
        "Fig. 5b: throttled FCTs are dominated by best effort "
        "(tests/paper/test_fig5b.py::test_throttled_slower_than_best_effort)",
    "experiments/fig5b_fct.py::FctResult.medians":
        "Fig. 5b: the three classes' medians are ordered and separated "
        "(tests/paper/test_fig5b.py::test_medians_ordered_and_separated)",
    "study/appstore.py::AppCatalog.category_breakdown":
        "Fig. 2's category table "
        "(tests/paper/test_fig2.py::test_category_marginals_match_fig2)",
    "study/appstore.py::AppCatalog.popularity_breakdown":
        "Fig. 2's popularity table "
        "(tests/paper/test_fig2.py::test_popularity_marginals_match_fig2)",
    "study/appstore.py::AppCatalog.total_weight":
        "Fig. 2: 650 users name the 106 apps "
        "(tests/paper/test_fig2.py::test_total_weight_is_650)",
    "core/offload.py::HardwarePrefilter.software":
        "Sec. 4.6's hardware offload "
        "(tests/paper/test_ablations.py::test_ablation_hw_offload)",
    "core/offload.py::HardwarePrefilter.offload_flow":
        "Sec. 4.6's hardware offload "
        "(tests/paper/test_ablations.py::test_ablation_hw_offload)",
    "core/offload.py::HardwarePrefilter.offloaded_flows":
        "Sec. 4.6's hardware offload "
        "(tests/paper/test_ablations.py::test_ablation_hw_offload)",
    "experiments/fig6_accuracy.py::AccuracyResult.false_fraction_of_site":
        "Fig. 6: nDPI's YouTube rule marks 12 % of skai.gr (tests/paper/"
        "test_fig6.py::test_ndpi_youtube_false_positive_on_skai_12_percent)",
    "services/boost/agent.py::BoostAgent.boost_tab":
        "Sec. 5.1: boosting a tab is one of Boost's two preference forms "
        "(tests/services/test_boost.py::TestAgentPreferences::test_boost_tab)",
    "core/parallel.py::ProcessShardExecutor.ensure_healthy": POOL,
    "core/parallel.py::ProcessShardExecutor.register_transport_telemetry": POOL,
    "core/parallel.py::ProcessShardExecutor.restart_shard": POOL,
    "core/parallel.py::ProcessShardExecutor.worker_pids": POOL,
    "core/parallel.py::ProcessShardExecutor.worker_process": POOL,
}


def _py_files(directory):
    return sorted(p for p in directory.rglob("*.py") if "tests" not in p.parts)


def _is_docstring(node):
    return isinstance(node, ast.Expr) and isinstance(
        getattr(node, "value", None), ast.Constant
    ) and isinstance(node.value.value, str)


class _Reads(ast.NodeVisitor):
    """Every name a module reads, and the lines it reads them on."""

    def __init__(self):
        self.reads = {}

    def _add(self, name, node):
        self.reads.setdefault(name, []).append(node.lineno)

    def generic_visit(self, node):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and _is_docstring(body[0]):
            for child in ast.iter_child_nodes(node):
                if child is not body[0]:
                    self.visit(child)
            return
        super().generic_visit(node)

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node):
        self._add(node.id, node)

    def visit_Attribute(self, node):
        self._add(node.attr, node)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._add((node.asname or node.name).rpartition(".")[2], node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value, node)


def _definitions(tree):
    """Yield ``(qualname, node, class_node)`` for each public definition."""

    def walk(body, prefix, cls):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qual = f"{prefix}{node.name}"
                if not node.name.startswith("_"):
                    yield qual, node, cls
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{qual}.", node)
            elif isinstance(node, (ast.If, ast.Try)):
                yield from walk(node.body, prefix, cls)
                yield from walk(getattr(node, "orelse", []), prefix, cls)

    yield from walk(tree.body, "", None)


def _external_has(base, name, imports):
    """Whether an imported (non-``src``) base class defines ``name``."""
    parts = []
    while isinstance(base, ast.Attribute):
        parts.append(base.attr)
        base = base.value
    if not isinstance(base, ast.Name):
        return False
    parts.append(base.id)
    parts.reverse()
    origin = imports.get(parts[0])
    if origin is None or origin.startswith("repro"):
        return False
    module, _, attr = origin.partition(":")
    try:
        obj = importlib.import_module(module)
        if attr:
            obj = getattr(obj, attr)
        for part in parts[1:]:
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return False
    return isinstance(obj, type) and hasattr(obj, name)


def _imports(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    f"{node.module}:{alias.name}"
                )
    return names


def census():
    """Return ``{key: lines}`` for each definition that has no caller and
    overrides nothing, allowlisted or not."""
    modules = {}
    reads = {}
    for directory in CALLER_DIRS:
        for path in _py_files(directory):
            tree = ast.parse(path.read_text(), str(path))
            if directory is SRC:
                modules[path] = tree
            visitor = _Reads()
            visitor.visit(tree)
            for name, lines in visitor.reads.items():
                reads.setdefault(name, []).extend(
                    (path, line) for line in lines
                )

    # Every method name each src class defines, to resolve overrides.
    class_methods = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                class_methods.setdefault(node.name, []).append(
                    (node, {n.name for n in node.body if isinstance(
                        n, (ast.FunctionDef, ast.AsyncFunctionDef))})
                )

    def overrides(cls, name, imports, seen=()):
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in class_methods:
                for base_cls, methods in class_methods[base.id]:
                    if base_cls in seen:
                        continue
                    if name in methods or overrides(
                            base_cls, name, imports, seen + (cls,)):
                        return True
            elif _external_has(base, name, imports):
                return True
        return False

    orphans = {}
    for path, tree in modules.items():
        imports = _imports(tree)
        rel = path.relative_to(SRC / "repro").as_posix()
        for qual, node, cls in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if any(p != path or line not in own
                   for p, line in reads.get(node.name, ())):
                continue
            if cls is not None and overrides(cls, node.name, imports):
                continue
            orphans[f"{rel}::{qual}"] = node.end_lineno - node.lineno + 1
    return orphans


@pytest.fixture(scope="module")
def orphans():
    return census()


def test_every_public_definition_has_a_caller_outside_tests(orphans):
    orphans = {k: n for k, n in orphans.items() if k not in ALLOWLIST}
    assert not orphans, (
        f"{len(orphans)} public definitions in src/ have no caller outside "
        "tests (delete them, call them, or allowlist them with a reason):\n"
        + "\n".join(f"  {key} ({lines} lines)" for key, lines in orphans.items())
    )


def test_allowlist_is_small_and_every_entry_is_still_needed(orphans):
    """An entry that went away or gained a caller leaves the list."""
    assert len(ALLOWLIST) <= 20
    assert all(reason.strip() for reason in ALLOWLIST.values())
    assert sorted(set(ALLOWLIST) - set(orphans)) == []


if __name__ == "__main__":
    found = {k: n for k, n in census().items() if k not in ALLOWLIST}
    for key, lines in found.items():
        print(f"{lines:4d}  {key}")
    print(len(found), "definitions,", sum(found.values()), "lines")
