import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boxcgf"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no runtime check may be one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _names_scipy_stats(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Constant):  # importlib.import_module's argument
        names = [node.value] if isinstance(node.value, str) else []
    else:
        return False
    return any(name == "scipy.stats" or name.startswith("scipy.stats.")
               for name in names)


def test_package_never_imports_scipy_stats():
    # clt's KS test is boxcgf.ks; scipy.stats alone costs half a second
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _names_scipy_stats(node)]
    assert found == []


def test_thread_pool_is_written_in_one_module():
    # every parallel map goes through the one in-order chunk map
    named = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "ThreadPoolExecutor" in path.read_text()]
    assert named == ["fields.py"]


def _dotted(node) -> tuple[str, ...] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *parts[::-1]) if isinstance(node, ast.Name) else None


def _is_rebind(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", "") == "rebind"


def test_benchmark_probe_rebinds_only_existing_names():
    # bench/probe.py wraps layer functions by name when it traces a run:
    # every name it reaches into must still exist in the package
    probe = PACKAGE.parent.parent / "bench" / "probe.py"
    install = next(node for node in ast.walk(ast.parse(probe.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_install")
    nodes = list(ast.walk(install))
    modules = {alias.asname or alias.name for node in nodes
               if isinstance(node, ast.ImportFrom) and node.module == "boxcgf"
               for alias in node.names}
    wanted = set()
    for node in nodes:
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            # rebind(module, attr, ...) for each attr of a loop's tuple
            wanted |= {(call.args[0].id, e.value) for call in ast.walk(node)
                       if _is_rebind(call) and isinstance(call.args[1], ast.Name)
                       for e in node.iter.elts}
        elif _is_rebind(node) and isinstance(node.args[1], ast.Constant):
            wanted.add((node.args[0].id, node.args[1].value))
        elif (path := _dotted(node)) and path[0] in modules and len(path) > 1:
            wanted.add(path)
    assert {("fields", "sample_integral"), ("engine", "ladder_descent"),
            ("engine", "step_down"), ("report", "ExperimentReport", "write"),
            ("config", "ExperimentConfig", "from_json")} <= wanted
    missing = []
    for module, *attrs in sorted(wanted):
        obj = importlib.import_module(f"boxcgf.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(".".join([module, *attrs]))
                break
            obj = getattr(obj, attr)
    assert missing == []
