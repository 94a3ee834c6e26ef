"""Guards against unused surface growing back into ``src/gradsol``.

An import a module never reads, or a top-level function or public method
that no ``src/`` module reads, is code only tests can reach.  Each name kept
anyway is listed with its reason.  Reads are matched by name: a method counts
as read wherever an attribute of the same name is read, so the guard misses
a dead method that shares its name with a live one (``truncated``, ``values``).
"""

import ast
from pathlib import Path

import gradsol

SRC = Path(gradsol.__file__).parent

# (module, imported name): imported for another reader
UNREAD_IMPORTS_KEPT = {
    ("verify", "bach"): "bench/test_bench.py looks up verify.bach",
}

# (module, qualified name): defined for a reader outside src/
UNREAD_DEFS_KEPT = {
    ("solitons", "sample_points"): "bench/tracer.py spans it; bench/test_bench.py calls it",
    ("jets", "jet_lift"): "the finite-difference oracles in tests/test_jets.py",
    ("jets", "JetScalar.partial"): "the finite-difference oracles in tests/test_jets.py",
    ("tensors", "metric_at_point"): "the package exports it (bench/tracer.py's span on it "
                                    "no longer fires: nothing in src/ calls it)",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _reads(tree):
    """Every name read in `tree`: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def _definitions(tree):
    """Top-level functions, and public methods of top-level classes, by qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def test_every_import_is_read():
    unread = []
    for module, tree in _modules().items():
        if module == "__init__":  # its imports are the package's exports
            continue
        reads = _reads(tree)
        unread += [(module, name) for name in _imported(tree)
                   if name not in reads and (module, name) not in UNREAD_IMPORTS_KEPT]
    assert unread == []


def test_every_function_and_public_method_is_read_in_src():
    modules = _modules()
    reads = set().union(*(_reads(tree) for tree in modules.values()))
    unread = {(module, qual) for module, tree in modules.items()
              for qual, name in _definitions(tree) if name not in reads}
    assert unread - set(UNREAD_DEFS_KEPT) == set()
    assert set(UNREAD_DEFS_KEPT) - unread == set()  # now read: drop it from the keep-list
