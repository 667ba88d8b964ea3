"""No module of the engine imports a name it does not use.

Read with `ast`: a name bound by an import must appear as a name somewhere
else in the module (annotations included), or in its `__all__`.  The package
`__init__` modules re-export what they import, so they are not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "riemcheck"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names the module's imports bind and nothing else reads."""
    tree = ast.parse(source)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nfrom x import a, b as c\nprint(a)\n") == [
        (1, "math"), (2, "c")]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_a_name_it_does_not_use(path):
    assert MODULES
    assert unused_imports(path.read_text()) == []
