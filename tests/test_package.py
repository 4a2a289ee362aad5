import ast
import importlib
from pathlib import Path

import afdeconv


def test_reexports_are_listed_in_module_all():
    """Every name the package re-exports from a module is in that module's
    `__all__`, so a deleted function cannot stay exported from one list."""
    tree = ast.parse(Path(afdeconv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"afdeconv.{node.module}")
        missing = [alias.name for alias in node.names
                   if alias.name not in module.__all__]
        assert missing == [], f"afdeconv.{node.module}.__all__ lacks {missing}"


def test_every_exported_name_has_a_caller():
    """Every name in a module's `__all__` is used somewhere under `src`
    or `tests`: a load of the name or an attribute of that name.  Its
    definition and the export lists are not uses, so public API that
    nothing calls fails here and gets deleted."""
    package = Path(afdeconv.__file__).parent
    used = set()
    for path in [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"afdeconv.{path.stem}")
        unused = [name for name in module.__all__ if name not in used]
        assert unused == [], f"afdeconv.{path.stem} exports {unused} with no caller"
