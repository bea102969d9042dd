"""Every import in the package modules is used (a stdlib stand-in for a
linter's unused-import rule; ``__init__.py`` is exempt, its imports are
re-exports), every private module-level helper is read somewhere in the
package, and every keyword default of a private function is overridden by
some call in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgspec"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ count as used: they are exported
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions, classes and constants; dunders are exempt."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                out[name] = node.lineno
    return out


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Private module-level definitions that no module of ``sources``
    ({file name: source}) reads, as a name, an attribute or an import."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{mod}: {name} (line {line})" for mod, tree in trees.items()
                  for name, line in private_definitions(tree).items() if name not in used)


def test_no_dead_private_helpers():
    assert dead_private_helpers({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_detects_a_dead_private_helper():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\n_CAP = 3\n__all__ = []\n"
                "class _Gone: pass\n_used()\n",
        "b.py": "from a import _CAP\n",
    }
    assert dead_private_helpers(sources) == ["a.py: _Gone (line 5)", "a.py: _dead (line 2)"]


def private_knobs(sources: dict[str, str]) -> list[str]:
    """Keyword defaults of private functions in ``sources`` ({file name:
    source}) that no call there overrides, by keyword or by position: a
    knob that nothing turns. A call with ``*args`` or ``**kwargs`` counts as
    overriding every default it could reach. Calls are matched by name."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    knobs = []  # (module, function, parameter, position or None, line)
    calls: dict[str, list[ast.Call]] = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_") and not node.name.endswith("__")):
                args = node.args
                positional = args.posonlyargs + args.args
                skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
                first = len(positional) - len(args.defaults)
                knobs += [(mod, node.name, a.arg, i - skip, node.lineno)
                          for i, a in enumerate(positional[first:], first)]
                knobs += [(mod, node.name, a.arg, None, node.lineno)
                          for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]

    def overrides(call: ast.Call, param: str, pos: int | None) -> bool:
        if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return pos is not None and len(call.args) > pos

    return sorted(f"{mod}: {fn}({param}) (line {line})" for mod, fn, param, pos, line in knobs
                  if not any(overrides(c, param, pos) for c in calls.get(fn, ())))


def test_no_private_knobs():
    assert private_knobs({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_detects_a_private_knob():
    sources = {
        "a.py": "def _f(x, tries=3, step=0.1, *, tol=1e-9, mode=None): pass\n"
                "def _g(x, y=1): pass\n"
                "def _h(x, y=1): pass\n"
                "class C:\n    def _m(self, k=2): pass\n",
        "b.py": "from a import _f, _g, _h\n_f(1, 5)\n_f(1, mode='x')\n_g(*[1, 2])\n"
                "_h(x=1)\nC()._m()\n",
    }
    assert private_knobs(sources) == ["a.py: _f(step) (line 1)", "a.py: _f(tol) (line 1)",
                                      "a.py: _h(y) (line 3)", "a.py: _m(k) (line 5)"]


def module_all(tree: ast.Module) -> set[str]:
    """The names in a module's ``__all__``."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_package_reexports_every_public_name():
    # sgspec's names are exactly its modules' __all__; simplex is left out,
    # since no module of the package uses it
    init = ast.parse((SRC / "__init__.py").read_text())
    reexported = {alias.asname or alias.name for node in init.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = set().union(*(module_all(ast.parse(p.read_text())) for p in SRC.glob("*.py")
                           if p.name not in ("__init__.py", "simplex.py")))
    assert reexported == public


def reached_names(tree: ast.Module, roots) -> dict[str, set[str]]:
    """For each module-level definition that the ``roots`` reach, the names
    it loads. A definition reaches every module-level function, class or
    constant whose name it loads (``_KERNELS`` reaches its kernels)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    reached, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached[name] = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        todo += reached[name]
    return reached


def forbidden_in_checkers(source: str, roots) -> list[str]:
    """The names that a checker of ``roots``, or anything it reaches in the
    same module, must not load but does: the producers ``_pattern_lambda``
    and ``_feasible_flow``, the pin stage's labeling kernel
    ``_block_labels``, and every name imported from ``spectra`` or
    ``cheeger`` (or the module itself)."""
    tree = ast.parse(source)
    banned = {"_pattern_lambda", "_feasible_flow", "_block_labels"}
    modules = ("spectra", "cheeger")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            banned |= {alias.asname or alias.name for alias in node.names
                       if module in modules or alias.name in modules}
        elif isinstance(node, ast.Import):
            banned |= {alias.asname or alias.name for alias in node.names
                       if alias.name.split(".")[-1] in modules}
    return sorted(f"{fn}: {name}" for fn, names in reached_names(tree, roots).items()
                  for name in names & banned)


def test_the_1lap_checkers_are_independent_of_what_they_check():
    # the certifying-algorithm contract: the checkers re-derive everything
    # from g and the pattern, and share no code with the max-flow, the
    # screen or the pin stage that produce the certificates
    source = (SRC / "operators.py").read_text()
    roots = ("check_certificates_1lap",)
    reached = reached_names(ast.parse(source), roots)
    kernels = {"_block", "_screen", "_support_cut", "_zero_cut", "_support", "_witness"}
    assert kernels <= set(reached)
    assert forbidden_in_checkers(source, roots) == []


def test_the_oracles_do_not_use_the_labeling_kernel():
    # the closure oracles and pin_stage_reference are independent paths to
    # what the nodal counts and the pin stage compute with _block_labels
    tree = ast.parse((SRC.parents[1] / "tests" / "oracles.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    loaded |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "_block_labels" not in names | loaded


def test_detects_a_checker_that_names_a_producer():
    source = ("from . import cheeger as _ch\nfrom .spectra import _pin_stage\n"
              "from .graph import _block_labels, _is\n"
              "def _feasible_flow(): pass\ndef _pattern_lambda(): pass\n"
              "def _kernel(): return _pin_stage\n_TABLE = {'k': _kernel}\n"
              "def _helper(): return _ch.x, _is\n"
              "def check(): return _TABLE, _helper()\n"
              "def other(): return _feasible_flow(), _pattern_lambda(), _block_labels\n")
    assert forbidden_in_checkers(source, ("check",)) == ["_helper: _ch", "_kernel: _pin_stage"]
    assert forbidden_in_checkers(source, ("other",)) == ["other: _block_labels",
                                                         "other: _feasible_flow",
                                                         "other: _pattern_lambda"]
