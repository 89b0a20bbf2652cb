"""API hygiene: ``__all__`` must match what a package actually exports.

``__all__`` is the public contract: it drives ``import *``, doc
tooling, and reviewers' sense of the surface area.  Two failure modes:
a name listed but never bound (an ``ImportError`` waiting inside
``import *``), and a public binding not listed (an accidental export —
or an accidentally private API).  Package ``__init__.py`` files exist
only to curate the surface, so there the rule also requires ``__all__``
to be present and complete.

A package ``__init__.py`` may export lazily (PEP 562): a module-level
``__getattr__`` that reads one module-level dict literal mapping each
public name to its module.  The keys of that table count as bound, and
the table and ``__all__`` must agree both ways; a lazy package whose
table or ``__all__`` is not a literal is reported, not skipped.
"""

from __future__ import annotations

import ast

from ..base import Fixture, ParsedFile, Rule, const_str, register
from ..findings import Finding

__all__ = ["ApiHygieneRule"]


def _module_bindings(tree: ast.Module):
    """(bound names, public from-import/def names, star_import, all_node)."""
    bound: set = set()
    public: set = set()
    star = False
    all_node = None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    bound.add(t.id)
                    if t.id == "__all__":
                        all_node = node
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    star = True
                    continue
                name = alias.asname or alias.name
                bound.add(name)
                if not name.startswith("_"):
                    public.add(name)
    return bound, public, star, all_node


def _lazy_table(tree: ast.Module):
    """For a module with a module-level ``__getattr__``: (has hook,
    table keys or None).  The table is the one module-level dict literal
    with constant-string keys that ``__getattr__`` reads."""
    hook = next((node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "__getattr__"), None)
    if hook is None:
        return False, None
    read = {node.id for node in ast.walk(hook)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    tables = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id in read and \
                isinstance(node.value, ast.Dict):
            keys = [const_str(k) if k is not None else None
                    for k in node.value.keys]
            if None not in keys:
                tables.append(keys)
    return True, (tables[0] if len(tables) == 1 else None)


def _all_entries(all_node: ast.Assign):
    """(entries with line numbers, static) from the __all__ literal."""
    value = all_node.value
    if not isinstance(value, (ast.List, ast.Tuple)):
        return [], False
    entries = []
    for elt in value.elts:
        text = const_str(elt)
        if text is None:
            return [], False
        entries.append((text, elt.lineno, elt.col_offset))
    return entries, True


@register
class ApiHygieneRule(Rule):
    id = "API001"
    name = "all-vs-public-defs"
    rationale = (
        "__all__ is the public contract: a listed-but-unbound name "
        "breaks `import *` with an ImportError, and a public binding "
        "missing from the list is an export nobody decided on.  In "
        "package __init__.py files — which exist only to curate the "
        "surface — __all__ must be present and must exactly cover the "
        "public bindings."
    )
    scope = "file"
    default_path = "pkg/__init__.py"
    fixtures = [
        Fixture(
            bad=(
                "from .kernel import AdmissionSession, Decision\n"
                "\n"
                "__all__ = ['AdmissionSession', 'Decision', 'ReplayResult']\n"
            ),
            good=(
                "from .kernel import AdmissionSession, Decision\n"
                "\n"
                "__all__ = ['AdmissionSession', 'Decision']\n"
            ),
            note="'ReplayResult' is exported but never imported: "
                 "`import *` raises ImportError",
        ),
        Fixture(
            bad=(
                "from .kernel import AdmissionSession, Decision\n"
                "\n"
                "__all__ = ['AdmissionSession']\n"
            ),
            good=(
                "from .kernel import AdmissionSession, Decision\n"
                "\n"
                "__all__ = ['AdmissionSession', 'Decision']\n"
            ),
            note="Decision is publicly imported but unlisted — an export "
                 "nobody decided on",
        ),
        Fixture(
            bad=(
                "import importlib\n"
                "\n"
                "_EXPORTS = {'AdmissionSession': '.kernel'}\n"
                "\n"
                "__all__ = ['AdmissionSession', 'Decision']\n"
                "\n"
                "def __getattr__(name):\n"
                "    return getattr(importlib.import_module(\n"
                "        _EXPORTS[name], __name__), name)\n"
            ),
            good=(
                "import importlib\n"
                "\n"
                "_EXPORTS = {'AdmissionSession': '.kernel',\n"
                "            'Decision': '.kernel'}\n"
                "\n"
                "__all__ = ['AdmissionSession', 'Decision']\n"
                "\n"
                "def __getattr__(name):\n"
                "    return getattr(importlib.import_module(\n"
                "        _EXPORTS[name], __name__), name)\n"
            ),
            note="lazy package: 'Decision' is listed in __all__ but its "
                 "export table never maps it, so `import *` fails",
        ),
        Fixture(
            bad=(
                "import importlib\n"
                "\n"
                "_EXPORTS = {'AdmissionSession': '.kernel',\n"
                "            'Decision': '.kernel'}\n"
                "\n"
                "__all__ = ['AdmissionSession']\n"
                "\n"
                "def __getattr__(name):\n"
                "    return getattr(importlib.import_module(\n"
                "        _EXPORTS[name], __name__), name)\n"
            ),
            good=(
                "import importlib\n"
                "\n"
                "_EXPORTS = {'AdmissionSession': '.kernel'}\n"
                "\n"
                "__all__ = ['AdmissionSession']\n"
                "\n"
                "def __getattr__(name):\n"
                "    return getattr(importlib.import_module(\n"
                "        _EXPORTS[name], __name__), name)\n"
            ),
            note="lazy package: the export table maps 'Decision' but "
                 "__all__ omits it — an export nobody decided on",
        ),
    ]

    def check_file(self, parsed: ParsedFile):
        path = str(parsed.path)
        is_init = path.endswith("__init__.py")
        bound, public, star, all_node = _module_bindings(parsed.tree)
        lazy, table = _lazy_table(parsed.tree) if is_init else (False, None)
        if lazy and table is None:
            yield Finding(
                path=path, line=1, col=0, rule=self.id,
                message=("package __init__.py defines __getattr__ but "
                         "reads no single module-level dict literal of "
                         "export names; the lazy surface is unprovable"),
            )
            return
        if all_node is None:
            if is_init and public:
                yield Finding(
                    path=path, line=1, col=0, rule=self.id,
                    message=("package __init__.py has public bindings but "
                             "no __all__; the export surface must be "
                             "explicit"),
                )
            return
        entries, static = _all_entries(all_node)
        if not static:
            if lazy:
                yield Finding(
                    path=path, line=all_node.lineno,
                    col=all_node.col_offset, rule=self.id,
                    message=("__all__ of a lazily exporting package must "
                             "be a literal list of names"),
                )
            return  # dynamically built __all__: nothing provable
        names = {name for name, _, _ in entries}
        if lazy:
            bound = bound | set(table)
            for name in sorted(set(table) - names):
                yield Finding(
                    path=path, line=all_node.lineno,
                    col=all_node.col_offset, rule=self.id,
                    message=(f"lazy export table maps {name!r} but "
                             "__all__ does not list it"),
                )
        if not star:
            for name, line, col in entries:
                if name not in bound:
                    where = ("neither binds it nor maps it in its lazy "
                             "export table" if lazy else "never binds it")
                    yield Finding(
                        path=path, line=line, col=col, rule=self.id,
                        message=(f"__all__ lists {name!r} but the module "
                                 f"{where}; `import *` would raise "
                                 "ImportError"),
                    )
        if is_init:
            for name in sorted(public - names):
                yield Finding(
                    path=path, line=all_node.lineno, col=all_node.col_offset,
                    rule=self.id,
                    message=(f"public name {name!r} is bound in this "
                             "__init__.py but missing from __all__"),
                )
