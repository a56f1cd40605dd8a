"""The library's import graph points one way: homomesy and the CLI sit on
top of the combinatorial modules, which never import them back, and each
combinatorial module imports only the layers below it.  Every module
also uses each name it imports, so deleted code leaves no stale imports
behind, and no module reaches into another's `_`-prefixed helpers.  No
function calls itself, so no input is too deep for the interpreter's
recursion limit.  No module checks an invariant with `assert`, which
`python -O` strips: a broken invariant raises an explicit error.  Homomesy
reads cell layouts from its systems: only `cell_sum`, the definition on
objects, asks which element class it was given, and no other part of it
names an element class, so its orbit walk builds no element object.  Only
`shapes.pairwise_test` generates code: no other function calls `eval`,
`exec` or `compile`.  Every system counts its own elements: the CLI names
no counting function, and `partition_orbits` refuses a budget in one
place.  The one cache is `dynamics.straight_layout`, keyed by the shape
alone, so the key tests it holds are compiled once per shape.  Homomesy
walks orbits in one place, one `cycle` call in `partition_orbits`, whose
only parameters are the system and the budget: no switch turns off the
rotate-complement mirror, so no second walk hides behind one.  No function
rebuilds a tableau from a layout's cut of a reading word, as
`Tableau(layout.rows(word), ...)`: results made from reading words go
through `Tableau._of_word`, so no step drifts back onto the rows
constructor.  The homomesy writers, `reports_to_json` and the CLI's text
format, write from a report's integer sums: they build no `OrbitSummary`
or `Fraction` and read no summary view, so no per-row object comes back.
Homomesy resolves a support item to its key position only in `verdict`
and the system builders: the orbit walk reads a system's rotate on key
positions as given, so no partition re-derives it."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "promotab"
LOWER = ("shapes", "dynamics", "growth", "paths", "posets", "ktableaux")
UPPER = {"homomesy", "cli"}
# What each lower module may import: shapes is the bottom layer, so code
# that several modules share (such as the order-ideal enumerator) lives there.
LOWER_IMPORTS = {
    "shapes": {"errors"},
    "dynamics": {"shapes", "errors"},
    "posets": {"shapes", "errors"},
    "ktableaux": {"dynamics", "posets", "shapes", "errors"},
    "growth": {"dynamics", "shapes", "errors"},
    "paths": {"dynamics", "shapes", "errors"},
}


def imported_modules(path: Path) -> set[str]:
    """Last components of every promotab module that the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names if a.name.startswith("promotab"))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("promotab"):
                continue
            module = node.module or ""
            if module in ("", "promotab"):
                names.update(a.name for a in node.names)
            else:
                names.add(module.rsplit(".", 1)[-1])
    return names


def unused_imports(path: Path) -> set[str]:
    """Names a module imports at top level but never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".", 1)[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reaches(path: Path) -> set[str]:
    """`_`-prefixed names the file imports from a promotab module, and
    `module._name` reads on a name bound to a promotab module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name.startswith("promotab"))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("promotab"):
                continue
            found.update(a.name for a in node.names if is_private(a.name))
            if (node.module or "") in ("", "promotab"):
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr) and ast.unparse(node.value) in modules:
            found.add(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def self_calls(path: Path) -> set[str]:
    """Functions, nested ones included, that call themselves by name, or
    as `self.name` in a method."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in (fn.name, f"self.{fn.name}"):
                    found.add(fn.name)
    return found


def assert_lines(path: Path) -> list[int]:
    """Lines of the file's `assert` statements, nested ones included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


ELEMENT_CLASSES = {"Tableau", "LinearExtension", "IncreasingTableau"}


def element_type_checks(path: Path) -> set[str]:
    """Top-level definitions of the file (`<module>` for other statements)
    that call `isinstance` against an element class, nested calls included."""
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
                if set(re.findall(r"\w+", ast.unparse(node.args[1]))) & ELEMENT_CLASSES:
                    found.add(getattr(top, "name", "<module>"))
    return found


def element_class_uses(path: Path) -> set[str]:
    """Top-level definitions of the file (`<module>` for other statements,
    imports aside) that name an element class, as a bare or qualified
    name: to call its constructor, or to test against it."""
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in ELEMENT_CLASSES:
                found.add(getattr(top, "name", "<module>"))
    return found


CODE_GENERATORS = {"eval", "exec", "compile"}


def code_generation_calls(path: Path) -> set[str]:
    """Top-level definitions of the file (`<module>` for other statements)
    that call `eval`, `exec` or `compile`, nested calls included, by bare
    name or as an attribute of anything (`builtins.eval`, and also
    `re.compile`, which the guard would flag as well)."""
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name in CODE_GENERATORS:
                    found.add(getattr(top, "name", "<module>"))
    return found


def names_used(path: Path) -> set[str]:
    """Every name the file imports or reads, bare or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def budget_raises(path: Path, function: str) -> int:
    """The `raise BudgetExceededError` statements of the file's top-level
    `function`, nested ones included, by bare or qualified name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function)
    raised = [ast.unparse(node.exc).split("(", 1)[0] for node in ast.walk(top) if isinstance(node, ast.Raise) and node.exc]
    return sum(name.rsplit(".", 1)[-1] == "BudgetExceededError" for name in raised)


def import_graph() -> dict[str, set[str]]:
    return {path.stem: imported_modules(path) for path in SRC.glob("*.py")}


def test_every_module_is_covered():
    assert set(LOWER) | UPPER <= import_graph().keys()


@pytest.mark.parametrize("module", LOWER)
def test_lower_modules_do_not_import_upward(module):
    assert not import_graph()[module] & UPPER


@pytest.mark.parametrize("module", LOWER)
def test_lower_modules_import_only_the_layers_below(module):
    assert import_graph()[module] <= LOWER_IMPORTS[module]


def test_guard_sees_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .homomesy import verdict\n"
        "from . import cli\n"
        "def f():\n"
        "    import promotab.homomesy\n"
        "    from promotab import shapes\n"
    )
    assert imported_modules(probe) == {"homomesy", "cli", "shapes"}


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    assert not unused_imports(path)


def test_unused_import_guard_sees_leftovers(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .dynamics import cycle, promote as step\n"
        "def f(x: int) -> str:\n"
        "    return json.dumps(step(x))\n"
    )
    assert unused_imports(probe) == {"os", "cycle"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reaches_into_another_modules_private_names(path):
    assert not private_reaches(path)


def test_private_name_guard_sees_imports_and_attribute_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import sys\n"
        "import promotab.posets\n"
        "from . import dynamics, shapes as sh\n"
        "from .homomesy import _entries, verdict\n"
        "from promotab.ktableaux import _switch_labels\n"
        "def f(t):\n"
        "    sys._getframe()\n"
        "    t._hash\n"
        "    dynamics.promote(t)\n"
        "    dynamics.__name__\n"
        "    return dynamics._promote_rows(t), sh._check(t), promotab.posets._up\n"
    )
    assert private_reaches(probe) == {
        "_entries",
        "_switch_labels",
        "dynamics._promote_rows",
        "sh._check",
        "promotab.posets._up",
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_function_calls_itself(path):
    assert not self_calls(path)


def test_self_call_guard_sees_nested_and_method_recursion(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def depth(n):\n"
        "    return 0 if n == 0 else 1 + depth(n - 1)\n"
        "def enumerate_all(cells):\n"
        "    def fill(i):\n"
        "        if i < len(cells):\n"
        "            yield from fill(i + 1)\n"
        "    return fill(0)\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        return 1 + sum(child.size() for child in self.children) + self.size()\n"
        "    def height(self):\n"
        "        return max(child.height() for child in self.children)\n"
        "def count(xs):\n"
        "    return len(xs) + depth(len(xs))\n"
    )
    assert self_calls(probe) == {"depth", "fill", "size"}


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.stem)
def test_no_module_asserts(path):
    assert not assert_lines(path)


def test_assert_guard_sees_nested_asserts(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(xs):\n"
        "    if xs:\n"
        "        assert xs[0] > 0, 'positive'\n"
        "    return [x for x in xs if x]\n"
        "class Box:\n"
        "    def check(self):\n"
        "        assert self\n"
        "        raise RuntimeError('assert')\n"
    )
    assert assert_lines(probe) == [3, 7]


def test_homomesy_asks_the_element_class_only_in_cell_sum():
    assert element_type_checks(SRC / "homomesy.py") <= {"cell_sum"}


def test_element_type_guard_sees_nested_and_qualified_checks(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import shapes\n"
        "def cell_sum(obj):\n"
        "    return isinstance(obj, Tableau)\n"
        "def position(obj, item):\n"
        "    def inner():\n"
        "        return isinstance(obj, (LinearExtension, IncreasingTableau))\n"
        "    return isinstance(item, tuple) or inner()\n"
        "class Report:\n"
        "    def rows(self, obj):\n"
        "        return isinstance(obj, shapes.Tableau)\n"
        "def plain(obj):\n"
        "    return isinstance(obj, (int, tuple))\n"
        "CHECK = isinstance(None, Tableau)\n"
    )
    assert element_type_checks(probe) == {"cell_sum", "position", "Report", "<module>"}


def test_homomesy_builds_no_element_object():
    # only the definition on objects names the element classes, so the
    # orbit walk and the verdicts cannot build one per orbit
    assert element_class_uses(SRC / "homomesy.py") <= {"cell_sum"}


def test_element_class_guard_sees_constructors_and_qualified_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .shapes import Tableau\n"
        "from . import posets\n"
        "def cell_sum(obj):\n"
        "    return isinstance(obj, Tableau)\n"
        "def system(p):\n"
        "    return dict(element=lambda labels: posets.LinearExtension(p, labels))\n"
        "class Orbit:\n"
        "    def lead(self, key):\n"
        "        return IncreasingTableau(self.p, key)\n"
        "def plain(rows):\n"
        "    return tuple(rows)\n"
        "KINDS = (Tableau,)\n"
    )
    assert element_class_uses(probe) == {"cell_sum", "system", "Orbit", "<module>"}


def test_only_pairwise_test_generates_code():
    calls = {(path.stem, name) for path in SRC.rglob("*.py") for name in code_generation_calls(path)}
    assert calls <= {("shapes", "pairwise_test")}


def test_code_generation_guard_sees_nested_and_attribute_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import builtins\n"
        "def pairwise_test(source):\n"
        "    def test(s):\n"
        "        return eval(compile(source, '<probe>', 'eval'))(s)\n"
        "    return test\n"
        "class Layout:\n"
        "    def run(self, source):\n"
        "        builtins.exec(source)\n"
        "def evaluate(node):\n"
        "    return node.eval\n"
        "def plain(x):\n"
        "    return evaluate(x)\n"
        "TABLE = [eval('1')]\n"
    )
    assert code_generation_calls(probe) == {"pairwise_test", "Layout", "<module>"}


COUNTERS = {"count_syt", "count_ssyt"}


def test_the_cli_counts_no_system():
    # each system carries its own count, which partition_orbits checks
    assert not names_used(SRC / "cli.py") & COUNTERS


def test_partition_orbits_refuses_a_budget_in_one_place():
    assert budget_raises(SRC / "homomesy.py", "partition_orbits") == 1


def test_count_and_budget_guards_see_aliases_attributes_and_nested_raises(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .shapes import count_ssyt as size_of\n"
        "from . import errors, shapes\n"
        "def system(shape):\n"
        "    return shapes.count_syt(shape)\n"
        "def partition_orbits(system, budget):\n"
        "    if system.count(budget) > budget:\n"
        "        raise BudgetExceededError('over the budget')\n"
        "    for key in system.enumerate():\n"
        "        if key is None:\n"
        "            raise errors.BudgetExceededError\n"
        "    raise PreconditionError('another error')\n"
        "def other():\n"
        "    raise BudgetExceededError('elsewhere')\n"
    )
    assert names_used(probe) & COUNTERS == COUNTERS
    assert budget_raises(probe, "partition_orbits") == 2
    assert budget_raises(probe, "other") == 1


CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}
ONE_CACHE = [("dynamics", "straight_layout", ("outer",))]


def parameter_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """The names of every parameter of the function `node` defines."""
    a = node.args
    return tuple(p.arg for p in [*a.posonlyargs, *a.args, *filter(None, [a.vararg]), *a.kwonlyargs, *filter(None, [a.kwarg])])


def cached_functions(root: Path) -> list[tuple[str, str, tuple[str, ...]]]:
    """The functions, at any depth, of the files under `root` that a cache
    decorator wraps (bare, called or qualified, as `functools.lru_cache(8)`),
    each with its module and its parameter names."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name in CACHE_DECORATORS:
                    found.append((path.stem, node.name, parameter_names(node)))
    return found


def test_the_one_cache_is_keyed_by_the_shape_alone():
    assert cached_functions(SRC) == ONE_CACHE


def test_cache_guard_sees_a_second_cache_and_a_second_parameter(tmp_path):
    probe = tmp_path / "dynamics.py"
    probe.write_text("from functools import lru_cache\n@lru_cache(maxsize=64)\ndef straight_layout(outer):\n    pass\n")
    assert cached_functions(tmp_path) == ONE_CACHE
    probe.write_text("import functools\n@functools.lru_cache(maxsize=8)\ndef straight_layout(outer, ceiling):\n    pass\n")
    assert cached_functions(tmp_path) == [("dynamics", "straight_layout", ("outer", "ceiling"))] != ONE_CACHE
    probe.write_text(
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=64)\n"
        "def straight_layout(outer):\n"
        "    pass\n"
        "@lru_cache\n"
        "def count(shape):\n"
        "    pass\n"
        "class Layout:\n"
        "    @cache\n"
        "    def test(self, *pairs, **options):\n"
        "        pass\n"
    )
    second = [("dynamics", "count", ("shape",)), ("dynamics", "test", ("self", "pairs", "options"))]
    assert cached_functions(tmp_path) == ONE_CACHE + second


def cycle_calls(path: Path) -> list[str]:
    """The top-level definition (`<module>` for other statements) of each
    `cycle` call in the file, nested calls included, by bare name or as
    an attribute (`dynamics.cycle`)."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name == "cycle":
                    found.append(getattr(top, "name", "<module>"))
    return found


def parameters(path: Path, function: str) -> tuple[str, ...]:
    """The names of every parameter of the file's top-level `function`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return parameter_names(next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function))


def test_homomesy_walks_orbits_in_one_place_with_no_switch():
    assert cycle_calls(SRC / "homomesy.py") == ["partition_orbits"]
    assert parameters(SRC / "homomesy.py", "partition_orbits") == ("system", "budget")


def test_walk_guard_sees_a_second_cycle_call_and_an_added_parameter(tmp_path):
    probe = tmp_path / "homomesy.py"
    probe.write_text("def partition_orbits(system, budget):\n    return list(cycle(0, system.step))\n")
    assert cycle_calls(probe) == ["partition_orbits"]
    assert parameters(probe, "partition_orbits") == ("system", "budget")
    probe.write_text(
        "from . import dynamics\n"
        "def partition_orbits(system, budget, *, mirror=True):\n"
        "    if mirror:\n"
        "        return list(cycle(0, system.step))\n"
        "    return [list(dynamics.cycle(k, system.step)) for k in system.enumerate()]\n"
        "def walk(system, **options):\n"
        "    return cycle(0, system.step)\n"
    )
    assert cycle_calls(probe) == ["partition_orbits", "partition_orbits", "walk"]
    assert parameters(probe, "partition_orbits") == ("system", "budget", "mirror")


def rows_rebuilds(path: Path) -> list[str]:
    """The top-level definition (`<module>` for other statements) of each
    `Tableau` construction in the file, nested ones included, by bare name
    or as an attribute (`shapes.Tableau`), whose rows, positional or by
    keyword, are a `.rows(...)` call: a layout's cut of a reading word."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            rows = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "rows"]
            if name == "Tableau" and any(
                isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute) and arg.func.attr == "rows" for arg in rows
            ):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_no_function_rebuilds_a_tableau_from_the_rows_of_a_word():
    assert {(path.stem, name) for path in SRC.rglob("*.py") for name in rows_rebuilds(path)} == set()


def test_rows_rebuild_guard_sees_nested_qualified_and_keyword_constructions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import shapes\n"
        "def promote(t):\n"
        "    return Tableau(layout.rows(step(word)), t.ceiling)\n"
        "def orbit(words, k):\n"
        "    return tuple(shapes.Tableau(LAYOUT.rows(w), k, ()) for w in words)\n"
        "class Walk:\n"
        "    def element(self, word):\n"
        "        return Tableau(ceiling=self.k, rows=self.layout.rows(word))\n"
        "def fast(t, word):\n"
        "    return Tableau._of_word(layout, word, t.ceiling)\n"
        "def oracle(t):\n"
        "    return Tableau(t.rows, t.ceiling, t.inner)\n"
        "def cut(word):\n"
        "    return chain_of(layout.rows(word), 3)\n"
        "FIRST = Tableau(LAYOUT.rows(WORD), 3)\n"
    )
    assert rows_rebuilds(probe) == ["promote", "orbit", "Walk", "<module>"]


SUMMARY_BUILDERS = {"OrbitSummary", "Fraction"}
SUMMARY_VIEWS = {"orbits", "witness", "average", "common_average"}
REPORT_WRITERS = [("homomesy", "reports_to_json"), ("cli", "_homomesy_text")]


def summary_uses(path: Path, function: str) -> list[str]:
    """What the file's top-level `function`, nested code included, does to
    get a per-row summary object: each call of `OrbitSummary` or `Fraction`,
    by bare or qualified name, and each read of a summary view (`orbits`,
    `witness`, `average`, `common_average`) on anything, in source order.
    An orbit partition has no `orbits`, so a read of one is a report's."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function)
    found = []
    for node in ast.walk(top):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in SUMMARY_BUILDERS:
                found.append((node.lineno, node.col_offset, ast.unparse(func)))
        elif isinstance(node, ast.Attribute) and node.attr in SUMMARY_VIEWS and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [text for *_, text in sorted(found)]


@pytest.mark.parametrize("module, function", REPORT_WRITERS, ids=lambda x: x)
def test_the_report_writers_build_no_summary(module, function):
    assert summary_uses(SRC / f"{module}.py", function) == []


def test_summary_guard_sees_constructions_and_views(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import fractions\n"
        "from . import homomesy\n"
        "def reports_to_json(reports):\n"
        "    rows = [homomesy.OrbitSummary(n, fractions.Fraction(s, n), ()) for s, n in reports[0].pairs]\n"
        "    for r in reports:\n"
        "        def entry(o):\n"
        "            return str(o.average)\n"
        "        rows += [entry(o) for o in r.orbits] + list(r.witness or ())\n"
        "    return rows, reports[0].partition.orbits, [r.partition.orbits for r in reports]\n"
        "def plain(report):\n"
        "    return Fraction(1, 2), report.orbits\n"
    )
    assert summary_uses(probe, "reports_to_json") == [
        "homomesy.OrbitSummary",
        "fractions.Fraction",
        "o.average",
        "r.orbits",
        "r.witness",
        "reports[0].partition.orbits",
        "r.partition.orbits",
    ]
    assert summary_uses(probe, "plain") == ["Fraction", "report.orbits"]


# where homomesy may resolve a support item: the reading of statistics, and
# the builders that define each system's `position`
POSITION_READERS = {"verdict", "ssyt_system", "_poset_layout", "syt_poset_system", "inc_system"}


def position_reads(path: Path) -> set[str]:
    """Top-level definitions of the file (`<module>` for other statements)
    that read a `position` attribute of anything or get it by `getattr`,
    nested code included: the ways to resolve a support item through a
    system."""
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            read = isinstance(node, ast.Attribute) and node.attr == "position" and isinstance(node.ctx, ast.Load)
            got = (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "getattr"
                and any(isinstance(arg, ast.Constant) and arg.value == "position" for arg in node.args)
            )
            if read or got:
                found.add(getattr(top, "name", "<module>"))
    return found


def test_homomesy_resolves_positions_only_in_verdict_and_the_builders():
    assert "verdict" in position_reads(SRC / "homomesy.py")
    assert position_reads(SRC / "homomesy.py") <= POSITION_READERS


def test_position_guard_sees_nested_attribute_reads_and_getattr(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def verdict(partition, statistic):\n"
        "    return [partition.system.position(item) for item in statistic.support]\n"
        "def partition_orbits(system, budget):\n"
        "    rho = lambda x: system.position(system.rotate[x])\n"
        "    return rho\n"
        "def _mirror(system, key):\n"
        "    return getattr(system, 'position')\n"
        "class Walk:\n"
        "    def images(self):\n"
        "        return map(self.system.position, self.items)\n"
        "def ssyt_system(shape):\n"
        "    def position(box):\n"
        "        return box[1]\n"
        "    return dict(position=position)\n"
        "def plain(layout):\n"
        "    layout.position = 0\n"
        "    return layout.positions\n"
        "FIRST = SYSTEM.position((1, 1))\n"
    )
    assert position_reads(probe) == {"verdict", "partition_orbits", "_mirror", "Walk", "<module>"}
