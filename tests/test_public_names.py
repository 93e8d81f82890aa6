"""Every public function, class and method of clog is reached by something
other than its own unit tests, and every import is used.

A name is reached when the CLI, the README, the benchmark (`bench/`), an
oracle (`tests/oracles.py`) or an acceptance criterion
(`tests/test_acceptance.py`) refers to it, directly or through library code
that is itself reached.  The only exceptions are listed in KEPT.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clog"

KEPT = {
    "rv.rv_to_json": "writes the README's random-variable file format",
    "randomisation.family_to_json": "writes the README's family file format",
    "hall.instance_to_json": "writes the README's Hall instance format",
    "hall.allocation_from_json": "reads the allocation `clog hall` prints",
    "rv.qf_type_equal": "the paper's quantifier-free type equality",
}


def _refs(tree, modules):
    """(module, name) pairs a syntax tree may refer to: module None for a
    bare name or a word in a string, "method" for any other attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add((None, node.id))
        elif isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in modules:
                out.add((value.id, node.attr))
            else:
                out.add(("method", node.attr))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            out.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update((None, word) for word in re.findall(r"\w+", node.value))
    return out


def _units():
    """Every definition of the package as (module, qualified name, tree),
    and each module's top-level statements as one more unit."""
    units = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rest = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                units.append((module, node.name, node))
            elif isinstance(node, ast.ClassDef):
                # the class without its methods, and each method on its own
                body = [ast.Expr(base) for base in node.bases]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        units.append((module, node.name + "." + item.name, item))
                    else:
                        body.append(item)
                units.append((module, node.name, ast.Module(body, [])))
            else:
                rest.append(node)
        units.append((module, None, ast.Module(rest, [])))
    return units


def _matches(module, qualname, refs, reached):
    cls, _, method = qualname.rpartition(".")
    if cls:
        # a method is called on instances, whatever the caller names them;
        # a private or special one goes with its class
        return (module, cls) in reached and (
            method.startswith("_") or ("method", method) in refs
        )
    return (module, qualname) in refs or (None, qualname) in refs


def unreached_names(kept=()):
    """The public names nothing reaches, with the names in kept taken as
    reached."""
    units = _units()
    modules = {module for module, _, _ in units}
    external = [ROOT / "tests" / "oracles.py", ROOT / "tests" / "test_acceptance.py"]
    external += sorted((ROOT / "bench").glob("*.py"))
    refs = set()
    for path in external:
        refs |= _refs(ast.parse(path.read_text(encoding="utf-8")), modules)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for code in re.findall(r"`([^`]+)`", readme):
        refs.update((None, word) for word in re.findall(r"\w+", code))
    pending = [
        u for u in units if u[1] is None or "%s.%s" % u[:2] in kept
    ]
    reached = {u[:2] for u in pending}
    while pending:
        refs |= _refs(pending.pop()[2], modules)
        for u in units:
            if u[:2] not in reached and _matches(u[0], u[1], refs, reached):
                reached.add(u[:2])
                pending.append(u)
    return sorted(
        "%s.%s" % (module, qualname)
        for module, qualname, _ in units
        if qualname is not None
        and not qualname.rpartition(".")[2].startswith("_")
        and (module, qualname) not in reached
    )


def test_public_names_are_reached():
    unreached = unreached_names(KEPT)
    assert not unreached, "nothing but tests reaches " + ", ".join(unreached)
    stale = sorted(set(KEPT) - set(unreached_names()))
    assert not stale, "KEPT lists a name that is reached or gone: " + ", ".join(stale)


def unused_imports(path):
    """The names a file imports and never loads, as "file:line name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for name, line in imported.items() if name not in loaded
    ]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert not unused, "imported and never used: " + ", ".join(unused)
