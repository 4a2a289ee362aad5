import ast
import importlib
import json
import os
import re
import subprocess
import sys
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


def test_every_import_is_used():
    """Every name that a module of `src/afdeconv` or `tests` imports at
    its top level is loaded somewhere in that module, so a deleted caller
    cannot leave its import behind.  The package's `__init__`, whose
    imports are its re-exports, is skipped."""
    package = Path(afdeconv.__file__).parent
    for path in [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused = sorted(imported - loaded)
        assert unused == [], f"{path.name} imports {unused} and never uses them"


def test_readme_python_example_runs(tmp_path, monkeypatch):
    """The README's Python example runs as written, in a temporary working
    directory, so a signature change cannot leave it stale."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(readme), "exec"), {})
    assert (tmp_path / "coefficients.csv").is_file()


def test_package_imports_only_numpy_and_yaml():
    """The package needs no third-party package but numpy and PyYAML.

    A fresh interpreter imports `afdeconv.cli`, and every top-level name
    that the import system loaded for it (a module with a `__spec__`;
    the in-memory runtime entries of numpy's Cython extensions have none)
    is in the standard library or numpy, yaml or the package itself.
    Taking the difference with the modules loaded before leaves out what
    site-packages `.pth` files import at start-up.  An AST walk over every
    import statement under `src/afdeconv`, function bodies included, then
    finds no other package, so a lazy import is caught as well."""
    package = Path(afdeconv.__file__).parent
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "import afdeconv.cli\n"
             "print(json.dumps(sorted({name.split('.')[0]\n"
             "    for name in set(sys.modules) - before\n"
             "    if getattr(sys.modules[name], '__spec__', None) is not None})))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    loaded = set(json.loads(result.stdout))
    allowed = set(sys.stdlib_module_names) | {"afdeconv", "numpy", "yaml"}
    assert "afdeconv" in loaded
    assert sorted(loaded - allowed) == []

    imported = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    foreign = {name: where for name, where in imported.items()
               if name not in allowed}
    assert foreign == {}, f"third-party imports outside numpy and yaml: {foreign}"


def test_package_reaches_no_private_numpy_name():
    """No import of numpy under `src/afdeconv` and no attribute chain that
    starts at it (``np.random.bit_generator.x``) names a private part, one
    that starts with ``_`` and is no dunder: numpy may change or drop those
    in any release."""
    package = Path(afdeconv.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                chains = [alias.name.split(".") for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                chains = [[*node.module.split("."), alias.name] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                chain, root = [], node
                while isinstance(root, ast.Attribute):
                    chain.insert(0, root.attr)
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in aliases):
                    continue
                chains = [["numpy", *chain]]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {'.'.join(chain)}"
                      for chain in chains if chain[0] == "numpy"
                      and any(part.startswith("_") and not part.endswith("__")
                              for part in chain)]
    assert found == [], f"private numpy names: {found}"
