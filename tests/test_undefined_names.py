"""Static guards against names a refactor leaves behind.

A name left behind by a refactor (a variable of the old function, a helper
that was renamed) only raises NameError when its line runs. The first guard
walks the symbol table of every module with the stdlib ``symtable`` and
reports each free global name that is neither bound at module level nor a
builtin. The second walks each module's syntax tree with the stdlib ``ast``
and reports each module-level import that nothing in the module reads, such
as the import of a deleted class. The third keeps the numeric CSV row
format in ``units``: no other module may hold a CRLF row end. The fourth
keeps the JSON artifact layout and the m to mm and Hz to kHz factor there
too: no other module may call ``json.dumps`` or hold the float 1e3. The
last two check the benchmark's side: the functions its tracer wraps, and the names
and keywords its workloads reach vibroprint through.
"""

import ast
import builtins
import importlib
import inspect
import symtable
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "vibroprint"


def _scopes(table):
    for child in table.get_children():
        yield child
        yield from _scopes(child)


def undefined_globals(source: str, filename: str) -> list[str]:
    """Return ``file:scope:name`` for each global a nested scope reads but nothing binds."""
    module = symtable.symtable(source, filename, "exec")
    bound = {s.get_name() for s in module.get_symbols() if s.is_assigned() or s.is_imported()}
    known = bound | set(dir(builtins)) | {"__file__"}
    return [
        f"{Path(filename).name}:{scope.get_name()}:{s.get_name()}"
        for scope in _scopes(module)
        for s in scope.get_symbols()
        if s.is_global() and s.is_referenced() and s.get_name() not in known
    ]


def test_no_undefined_global_names():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths, f"no modules found under {PACKAGE_DIR}"
    found = [name for path in paths for name in undefined_globals(path.read_text(), str(path))]
    assert not found, "undefined global names: " + ", ".join(found)


def test_guard_reports_a_stale_name():
    source = "import os\n\ndef f(base_dir):\n    base_dir = path.parent\n    return os.sep\n"
    assert undefined_globals(source, "m.py") == ["m.py:f:path"]


def unused_imports(source: str, filename: str) -> list[str]:
    """Return ``file:name`` for each name a module-level import binds but the module never reads."""
    tree = ast.parse(source, filename)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{Path(filename).name}:{name}" for name in imported if name not in read]


def test_no_unused_imports():
    # The package's __init__ imports names to re-export them, not to read them.
    paths = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert paths, f"no modules found under {PACKAGE_DIR}"
    found = [name for path in paths for name in unused_imports(path.read_text(), str(path))]
    assert not found, "unused imports: " + ", ".join(found)


def test_guard_reports_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os.path\nimport sys as system\n"
        "from math import pi, tau\n\ndef f():\n    return os.sep, tau\n"
    )
    assert unused_imports(source, "m.py") == ["m.py:system", "m.py:pi"]


def crlf_constants(source: str, filename: str) -> list[str]:
    """Return ``file:line`` for each string constant that holds a CRLF row end."""
    return [
        f"{Path(filename).name}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\r\n" in node.value
    ]


def test_csv_row_format_lives_in_units():
    # units.write_csv is the one writer of the numeric tables; csv.writer ends the others' rows.
    paths = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "units.py")
    found = [name for path in paths for name in crlf_constants(path.read_text(), str(path))]
    assert not found, "CRLF row ends outside units.write_csv: " + ", ".join(found)
    assert crlf_constants('x = 1\n\ndef f(a):\n    return f"{a}\\r\\n"\n', "m.py") == ["m.py:4"]


def format_decisions(source: str, filename: str) -> list[str]:
    """Return ``file:line:what`` for each ``json.dumps`` call and each float constant 1e3."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps":
            found.append(f"{Path(filename).name}:{node.lineno}:json.dumps")
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e3:
            found.append(f"{Path(filename).name}:{node.lineno}:1e3")
    return sorted(found)


def test_json_layout_and_unit_factors_live_in_units():
    # units.write_json writes every JSON artifact, and units converts m to mm and Hz to kHz.
    paths = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "units.py")
    found = [name for path in paths for name in format_decisions(path.read_text(), str(path))]
    assert not found, "JSON layout or unit factor outside units: " + ", ".join(found)
    source = "import json\n\ndef f(x):\n    return json.dumps(x), x * 1e3, x / 1000.0, x * 1000, 1e-3\n"
    assert format_decisions(source, "m.py") == ["m.py:4:1e3", "m.py:4:1e3", "m.py:4:json.dumps"]


SPANS = PACKAGE_DIR.parents[1] / "benchmarks" / "spans.py"


def span_targets(source: str) -> list[tuple[str, str, set[str]]]:
    """(module, function, argument names its counter hook reads) per entry of ``TARGETS``.

    A hook is None, a lambda or the name of a module-level function; it
    reads arguments as ``a["name"]`` from its first parameter.
    """
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    ]
    found = []
    for entry in targets.elts:
        module, function, hook = entry.elts
        if isinstance(hook, ast.Name):
            hook = functions[hook.id]
        reads = set()
        if not (isinstance(hook, ast.Constant) and hook.value is None):
            param = hook.args.args[0].arg
            reads = {
                node.slice.value
                for node in ast.walk(hook)
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == param
            }
        found.append((module.value, function.value, reads))
    return found


def test_benchmark_span_targets_exist():
    # The tracer wraps these by name and binds each hook's reads to the call's arguments.
    targets = span_targets(SPANS.read_text())
    assert {arg for *_, reads in targets for arg in reads} == {"constraints", "grid_step", "wav_path", "path", "rec"}
    for module, function, reads in targets:
        fn = getattr(importlib.import_module(f"vibroprint.{module}"), function, None)
        assert callable(fn), f"benchmarks/spans.py traces vibroprint.{module}.{function}, which is gone"
        missing = reads - set(inspect.signature(fn).parameters)
        assert not missing, f"vibroprint.{module}.{function} takes no argument(s) {sorted(missing)}"


WORKLOADS = SPANS.with_name("workloads.py")


def _dotted(node) -> tuple[str, list[str]] | None:
    """(root name, attributes) of a dotted name such as ``vp.CrossSection.square``."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    return (node.id, attrs) if isinstance(node, ast.Name) else None


def unresolved_entry_points(source: str) -> list[str]:
    """Each name or keyword that ``source`` reaches vibroprint through and vibroprint lacks.

    Dotted names are resolved from ``vp`` (the package) and from each name a
    ``from vibroprint... import`` binds; a call through one of them must
    accept each keyword argument it passes.
    """
    tree = ast.parse(source)
    roots = {"vp": importlib.import_module("vibroprint")}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "vibroprint":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    roots[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")

    def resolve(node):
        dotted = _dotted(node)
        if dotted is None or dotted[0] not in roots:
            return None
        root, attrs = dotted
        target = roots[root]
        for i, attr in enumerate(attrs):
            if not hasattr(target, attr):
                missing.append(".".join([root, *attrs[: i + 1]]))
                return None
            target = getattr(target, attr)
        return target

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        elif isinstance(node, ast.Call) and callable(target := resolve(node.func)):
            params = inspect.signature(target).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            name = ast.unparse(node.func)
            missing += [f"{name}({kw.arg}=)" for kw in node.keywords if kw.arg and kw.arg not in params]
    return sorted(set(missing))


def test_benchmark_entry_points_exist():
    # The benchmark's set-up reaches vibroprint by these names; a deletion must fail here first.
    missing = unresolved_entry_points(WORKLOADS.read_text())
    assert not missing, "benchmarks/workloads.py uses names vibroprint lacks: " + ", ".join(missing)


def test_entry_point_guard_reports_each_kind():
    source = (
        "from vibroprint import dataset, gone\nfrom vibroprint.units import mm_to_m as mm\n\n"
        "def setup(vp):\n    vp.CrossSection.round(mm(1))\n    vp.SlideScenario(beam=1, speed=2)\n"
        "    dataset.write_recording_bundle(1, 2, timestamp=False, stamp=True)\n    dataset.read_wav.x\n"
    )
    assert unresolved_entry_points(source) == [
        "dataset.read_wav.x",
        "dataset.write_recording_bundle(stamp=)",
        "vibroprint.gone",
        "vp.CrossSection.round",
        "vp.SlideScenario(speed=)",
    ]
