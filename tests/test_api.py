"""The package's public surface: what `chainomaly/__init__.py` re-exports
resolves, and no function or method in `src/chainomaly`, public or private
(dunder methods aside), is kept for the tests alone. Test-only code belongs
in the `tests/helpers_*.py` modules.

The reference scan works on names: a function counts as used when its name
appears as a variable, an attribute or an imported name in the program's
own code (`src/` and `clibench/`, test directories excluded) outside the
lines of its own definition. An attribute of a name imported from outside
`chainomaly` does not count, so `np.linalg.inv` is no use of a method
`inv`. Nor does a re-export from `chainomaly/__init__.py`: that list
declares the package's API, and a name in it still needs a caller in the
program."""

import ast
import importlib
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chainomaly"
PROGRAM = (ROOT / "src", ROOT / "clibench")


def _reexports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names]


def _defs():
    """(module file, qualified name, def node) for every top-level function
    and every method of a top-level class, dunder methods excepted."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield path, f"{node.name}.{item.name}", item


def _foreign_imports(tree: ast.Module) -> set[str]:
    """The names a module binds by importing from outside `chainomaly`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign = [a for a in node.names if a.name.split(".")[0] != "chainomaly"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            foreign = [] if (node.module or "").split(".")[0] == "chainomaly" else node.names
        else:
            continue
        names.update(a.asname or a.name.split(".")[0] for a in foreign)
    return names


def _root(node: ast.Attribute) -> str | None:
    """The name an attribute chain such as `np.linalg.inv` starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _references() -> dict[str, list[tuple[Path, int]]]:
    """name -> (file, line) of every use of the name in the program."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for top in PROGRAM:
        for path in sorted(top.rglob("*.py")):
            if "tests" in path.relative_to(top).parts or path == PACKAGE / "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            foreign = _foreign_imports(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    if _root(node) in foreign:
                        continue
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_reexport_resolves():
    package = importlib.import_module("chainomaly")
    names = _reexports()
    assert names
    assert [n for n in names if not hasattr(package, n)] == []


def _without_caller(private: bool) -> list[str]:
    """The public or the private functions and methods that nothing in the
    program uses outside their own definition."""
    refs = _references()
    assert any(path.name == "cli.py" for path, _ in refs["gap_scan"])  # the scan sees callers
    unused = []
    for path, qualname, node in _defs():
        if node.name.startswith("_") != private:
            continue
        own = range(node.lineno, node.end_lineno + 1)
        uses = [r for r in refs.get(node.name, []) if not (r[0] == path and r[1] in own)]
        if not uses:
            unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_public_function_has_a_caller_in_the_program():
    unused = _without_caller(private=False)
    assert unused == [], f"only the tests use these; move them to a tests/helpers_*.py: {unused}"


def test_every_private_function_has_a_caller_in_the_program():
    unused = _without_caller(private=True)
    assert unused == [], f"only the tests use these; move them to a tests/helpers_*.py: {unused}"
