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
