"""No module of the package or of the tests imports a name it never uses,
the package defines no function or class that only the tests use, its lazy
tables are all Memos, only the field-sized ones process-wide, its run scope
holds only the pinned builds, its SubsetJ values all come from the interned
table, and the library import loads none of the code-generation modules.
The tests' definition-level oracle imports no package code, and no test
names a retired snapshot reference or imports a retired module again."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from modpcheck.arith import Memo
from modpcheck.base_combinatorics import all_subsets
from modpcheck.phigamma import _between

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "modpcheck").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _names(tree):
    """The names bound by the module's imports, with their lines, and the
    names it reads (Name ids); __future__ imports are skipped."""
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, alias.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return bound, used


def _unused_imports(tree):
    """The names bound by the module's imports that nothing else in it reads."""
    bound, used = _names(tree)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    assert len(MODULES) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES
              for line, name in _unused_imports(_parse(path))]
    assert unused == []


def test_no_test_only_definitions_in_the_package():
    # every function and class of the package, dunder methods aside, is read
    # by name, attribute or import somewhere in the package or the benchmark;
    # a method or property counts as read only as an attribute, so a local or
    # a parameter of the same name does not keep it
    names, attrs = set(), set()
    for path in [*PACKAGE, *(ROOT / "perfbench").glob("*.py")]:
        tree = _parse(path)
        names |= _names(tree)[1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names for part in alias.name.split("."))
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    unread = []
    for path in PACKAGE:
        tree = _parse(path)
        members = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        unread += [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, defs)
                   and node.name not in (attrs if id(node) in members else names | attrs)
                   and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert len(PACKAGE) > 10
    assert unread == []


def test_library_import_loads_no_dataclass_machinery():
    # dataclasses brings inspect, ast, dis and tokenize, and decorating a
    # class execs generated source: set-up time in every fresh process.
    # The cli is left out, since click imports inspect itself.
    code = ("import sys, modpcheck.harness; print(sorted("
            "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout == "[]\n"


def _dotted(node):
    """'a.b' for the expression a.b, 'a' for the name a, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _in_bodies(tree, keep):
    """The ids of the nodes inside the body of a node for which keep holds."""
    return {id(node) for outer in ast.walk(tree) if keep(outer)
            for stmt in outer.body for node in ast.walk(stmt)}


def test_lazy_tables_are_memos():
    # Memo is the package's one lazy table: no cached_property or lru_cache,
    # functools.cache only for the call-local caches of a function body, and
    # no lock made outside Memo
    functions = ast.FunctionDef, ast.AsyncFunctionDef
    found = []
    for path in PACKAGE:
        tree = _parse(path)
        in_function = _in_bodies(tree, lambda n: isinstance(n, functions))
        in_memo = _in_bodies(tree, lambda n: isinstance(n, ast.ClassDef) and n.name == "Memo")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = [_dotted(node) or ""]
            for name in names:
                last = name.rsplit(".", 1)[-1]
                if (last in ("cached_property", "lru_cache")
                        or name == "functools.cache" and id(node) not in in_function
                        or name in ("threading.Lock", "threading.RLock")
                        and id(node) not in in_memo):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert found == []


# the module-level Memos, kept for the life of the process: each is bounded
# by q, p or f, which admission limits
PROCESS_WIDE = ("IRREDUCIBLES", "_FIELD_CACHE", "_WITT_CACHE", "_PACKINGS", "_SUBSETS",
                "_INVERSES")


def test_only_field_sized_memos_are_process_wide():
    # a table that grows with a run's cutoff, like the chart and its Lucas
    # rows, lives in the run's RunScope; a new process-wide table joins
    # PROCESS_WIDE on purpose
    tables = {}
    for path in PACKAGE:
        module = importlib.import_module(
            "modpcheck" if path.stem == "__init__" else f"modpcheck.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, Memo):
                tables.setdefault(id(value), name)
    assert sorted(tables.values()) == sorted(PROCESS_WIDE)


# the builds a run's RunScope holds, each keyed on what its value reads
RUN_SCOPED = ("ChartContext", "AJnFrame", "_change_origin_box", "_reindex_block",
              "_additivity_domain", "check_theta_basics", "check_theta_solver",
              "check_eigen_classifier")


def test_run_scope_holds_only_the_pinned_builds():
    # every scope[build] subscript of the package names one of RUN_SCOPED;
    # a new table shared between the jobs of a run joins it on purpose
    builds = {_dotted(node.slice) for path in PACKAGE for node in ast.walk(_parse(path))
              if isinstance(node, ast.Subscript) and _dotted(node.value) == "scope"}
    assert sorted(builds) == sorted(RUN_SCOPED)


def test_subsets_come_only_from_the_interned_table():
    # base_combinatorics fills all_subsets(f) once per f; every other
    # producer indexes it, so no module of the package calls SubsetJ(...)
    calls = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in PACKAGE if path.name != "base_combinatorics.py"
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call)
             and (_dotted(node.func) or "").rsplit(".", 1)[-1] == "SubsetJ"]
    assert calls == []


def test_between_yields_the_interned_subsets():
    for f in range(1, 5):
        subsets = all_subsets(f)
        for lo in subsets:
            for hi in subsets:
                got = list(_between(lo, hi))
                assert all(S is subsets[S.bits] for S in got)
                assert sorted(S.bits for S in got) == [
                    S.bits for S in subsets if lo <= S <= hi]


def test_oracle_shares_no_code_with_the_package():
    # tests/oracle.py computes from definitions, so it imports neither the
    # package nor a test module, whose helpers read the package
    tree = _parse(ROOT / "tests" / "oracle.py")
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "numpy" in modules
    assert [m for m in modules if m.split(".")[0] in ("", "modpcheck")
            or m.startswith("test_")] == []


# the snapshot references that the oracle and the pinned rows replaced, and
# the test-side copies of deleted package code (the integer-vector type, the
# value types' dataclass bodies, the series, conversion, binomial and
# matrix-layer routines), spelled in pieces so no line names them
RETIRED = ("reference_" + "torus_eigenvector", "reference_" + "eigen_classifier",
           "_reference_" + "relation_holds", "overlap_reindex_" + "reference",
           "reference_" + "y_series", "Int" + "Vec", "old_" + "plain",
           "Reference" + "Series", "one_plus_" + "var_power", "pth_" + "power",
           "_digit_" + "walk", "uncached_" + "t_to_y", "_act" + "ing",
           "_monomial_" + "action", "difference_" + "floor", "slot_correction_" + "units",
           "build_" + "mat_a") + tuple(
    "Old" + name for name in ("SubsetJ", "WeightB", "MuAlgebra", "Mutation", "RunConfig",
                              "Report", "UnitData", "PhiGammaMatrix", "ThetaProblem",
                              "CheckResult", "RhoParams", "HCharacter")) + tuple(
    "reference_" + name for name in ("mul_terms", "power", "tau_powers", "t_to_y", "case",
                                     "product", "n_series", "zp_power", "invert_unit",
                                     "binomial_series"))


def test_retired_references_stay_retired():
    # three kept test ids still end in the name of the digit walk they were
    # checked against
    found = [f"{path.relative_to(ROOT)}:{n}: {name}"
             for path in sorted((ROOT / "tests").glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             for name in RETIRED if name in line
             and not (name == "_digit_" + "walk" and line.startswith("def test_"))]
    assert found == []


def test_no_test_imports_a_retired_module():
    # the value types are plain classes and vectors are int tuples
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "tests").glob("*.py")) for node in ast.walk(_parse(path))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and {"dataclasses", "int" + "vec"} & {name.split(".")[0] for name in (
                 [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module])}]
    assert found == []
