"""Only the command-line front end formats output.

The library modules return values; cli.py alone turns them into csv, json
or table text, so it is the only module that imports json or csv.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "padicval"


def _imported_modules(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_cli_imports_json_or_csv():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    formatters = {path.name for path in modules if _imported_modules(path) & {"json", "csv"}}
    assert formatters == {"cli.py"}
