"""Every public top-level function and class of the ``rhlab`` modules is
exported by ``rhlab/__init__.py``, used by ``src/rhlab`` code, or on a short
allowlist with its reason: no door that only tests open.

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
