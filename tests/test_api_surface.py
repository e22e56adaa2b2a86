"""Every public top-level function and class of the ``rhlab`` modules is
exported by ``rhlab/__init__.py``, used by ``src/rhlab`` code, or on a short
allowlist with its reason: no door that only tests open.  And no function
keeps state in a module: none mutates a name bound by assignment at module
level.

Uses are found in the syntax trees (names and attributes), not in the text,
so a docstring that mentions a name does not count, and neither does the
name's own definition or an import of it.
"""

import ast
from pathlib import Path

import rhlab

SRC = Path(rhlab.__file__).parent

# public names that no rhlab code calls, each with the reason it stays
ALLOWED = {
    "inner_product": "acceptance criterion 4 checks the Lame energy identity with it",
    "substep_transport": "the reference trace's transport step (tests/_reference.py)",
}


def _surface():
    """([(module, name)] of the public top-level functions and classes, and
    the names used in code outside their own top-level definition)."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.append((path.stem, own))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add((sub.id, own))
                elif isinstance(sub, ast.Attribute):
                    used.add((sub.attr, own))
    return defined, {name for name, own in used if name != own}


def _exported():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_name_is_exported_used_or_allowed():
    defined, used = _surface()
    exported = _exported()
    doors = [f"{module}.{name}" for module, name in defined
             if name not in exported | used | set(ALLOWED)]
    assert doors == []


def test_allowlist_holds_only_unused_names():
    defined, used = _surface()
    names = {name for _, name in defined}
    assert sorted(name for name in ALLOWED
                  if name not in names or name in used | _exported()) == []


# methods that change their object in place (containers and numpy arrays)
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
            "setdefault", "add", "discard", "sort", "reverse", "difference_update",
            "intersection_update", "symmetric_difference_update", "fill", "resize",
            "put", "itemset", "setflags", "__setitem__", "__delitem__"}


def _module_bindings(tree):
    """Names bound by assignment in the module's own statements, outside
    every function and class body."""
    bound, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) and node.value else []
        bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        todo += [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
    return bound


def _root(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _state_mutations():
    """"file:line" of every statement in a function of ``src/rhlab`` that
    mutates module-level state: a subscript or attribute store or del, a
    ``global``, a mutating method call, or a setattr/delattr, on a name bound
    by assignment at module level, in its own module or imported from
    another.  Tables filled by module-level code at import are not in a
    function, and imported modules are not bound by assignment."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    bound = {path.stem: _module_bindings(tree) for path, tree in trees.items()}
    found = set()
    for path, tree in trees.items():
        state = set(bound[path.stem])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                state |= {alias.asname or alias.name for alias in node.names
                          if alias.name in bound.get(node.module, ())}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            declared = {name for n in ast.walk(func) if isinstance(n, ast.Global)
                        for name in n.names}
            local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)} | {
                n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            names = state - (local - declared)
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    hit = bool(set(node.names) & state)
                elif isinstance(node, (ast.Subscript, ast.Attribute)):
                    hit = isinstance(node.ctx, (ast.Store, ast.Del)) and _root(node) in names
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    hit = node.func.attr in MUTATORS and _root(node.func.value) in names
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    hit = node.func.id in ("setattr", "delattr") and bool(node.args) \
                        and _root(node.args[0]) in names
                else:
                    hit = False
                if hit:
                    found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_no_function_mutates_module_state():
    assert _state_mutations() == []
