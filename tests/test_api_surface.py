"""Every top-level function and class of the ``rhlab`` modules, private
ones too, and every method of a top-level class but the dunder methods, is
exported by ``rhlab/__init__.py``, used by ``src/rhlab`` code, or on a short
allowlist with its reason: no door that only tests open.  And no function
keeps state in a module: none mutates a name bound by assignment at module
level.

Uses are found in the syntax trees (names and attributes), not in the text,
so a docstring that mentions a name does not count, and neither does the
name's own definition (a class's methods included) or an import of it.
"""

import ast
from pathlib import Path

import rhlab

SRC = Path(rhlab.__file__).parent

# names that no rhlab code calls, each with the reason it stays
ALLOWED = {
    "inner_product": "acceptance criterion 4 checks the Lame energy identity with it",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _sources():
    return [(path.stem, path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _surface(sources):
    """([(module, label, name)] of the top-level functions and classes and
    of the methods of top-level classes, dunders apart, and the names used
    in code outside their own definition) of the (module, source) pairs.
    A method's label is ``Class.method``; its uses are looked up by the
    method's name.  In a method's body neither the method's nor the
    class's name counts as used: self-use is no use."""
    defined, used = [], set()
    for module, source in sources:
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            scopes = [(node, {own})]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(own):
                defined.append((module, own, own))
            if isinstance(node, ast.ClassDef):
                # each method is a scope of its own; the rest is the class's
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                defined += [(module, f"{own}.{m.name}", m.name) for m in methods
                            if not _is_dunder(m.name)]
                scopes = [(sub, {sub.name, own} if sub in methods else {own})
                          for sub in ast.iter_child_nodes(node)]
            for scope, owners in scopes:
                used |= {sub.id if isinstance(sub, ast.Name) else sub.attr
                         for sub in ast.walk(scope)
                         if isinstance(sub, (ast.Name, ast.Attribute))} - owners
    return defined, used


def _exported():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_name_is_exported_used_or_allowed():
    defined, used = _surface(_sources())
    exported = _exported()
    doors = [f"{module}.{label}" for module, label, name in defined
             if name not in exported | used | set(ALLOWED)]
    assert doors == []


def test_allowlist_holds_only_unused_names():
    defined, used = _surface(_sources())
    names = {name for _, _, name in defined}
    assert sorted(name for name in ALLOWED
                  if name not in names or name in used | _exported()) == []


SELF_USE = """from __future__ import annotations


class Foo:
    def make(self) -> Foo:
        return Foo().make()


def again(n):
    return again(n - 1)
"""


def test_self_use_is_no_use():
    # a class named in its own methods (a call, a string annotation), a
    # method calling itself and a recursive function stay unused ...
    defined, used = _surface([("m", SELF_USE)])
    assert sorted(label for _, label, _ in defined) == ["Foo", "Foo.make", "again"]
    assert {"Foo", "make", "again"} & used == set()
    # ... until code outside them names them
    _, used = _surface([("m", SELF_USE), ("n", "def user(x):\n    return Foo, x.make, again\n")])
    assert {"Foo", "make", "again"} <= used


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
