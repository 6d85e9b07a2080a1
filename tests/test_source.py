import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boxcgf"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no runtime check may be one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_thread_pool_is_written_in_one_module():
    # every parallel map goes through the one in-order chunk map
    named = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "ThreadPoolExecutor" in path.read_text()]
    assert named == ["fields.py"]
