"""Static checks on the package and test source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cryomech"
TESTS = ROOT / "tests"


def _unused_imports(path: Path) -> list[str]:
    """Module-level imported names that nothing in the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return [name for name in imported if name not in read]


def test_module_imports_are_used():
    # the package's __init__.py only re-exports, so its imports are its public names
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    unused = {str(p.relative_to(ROOT)): names for p in paths + sorted(TESTS.glob("*.py"))
              if (names := _unused_imports(p))}
    assert not unused, f"unused module-level imports: {unused}"
