"""Only the command-line front end formats output, and the package is
stdlib-only and runs in one process.

The library modules return values; cli.py alone turns them into csv, json
or table text, so it is the only module that imports json or csv.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "padicval"


def _imported_modules(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names  # ast.walk reaches an import inside a function too


def test_only_cli_imports_json_or_csv():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    formatters = {path.name for path in modules if _imported_modules(path) & {"json", "csv"}}
    assert formatters == {"cli.py"}


def test_imports_are_relative_or_stdlib_and_start_no_process():
    for path in sorted(SRC.glob("*.py")):
        imported = _imported_modules(path)
        assert imported <= sys.stdlib_module_names, (path.name, imported - sys.stdlib_module_names)
        assert not imported & {"concurrent", "multiprocessing"}, path.name
