"""Only the command-line front end formats output, the package is
stdlib-only and runs in one process, its modules load in one direction,
and importing the front end loads only what every command needs.

The library modules return values; cli.py alone turns them into csv, json
or table text, so it is the only module that imports json or csv.  A
command-line call is one process start, so `import padicval.cli` loads no
dataclasses (whose import pulls in inspect, ast and tokenize), no json
until json is written and no fractions (with decimal) until a Fraction is
built.
"""

import ast
import pathlib
import subprocess
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


# a module imports, at run time, only modules before it here
LAYERS = ["errors", "padic", "poly", "parser", "recurrence", "analysis", "reproduce", "cli"]


def _runtime_sibling_imports(path: pathlib.Path) -> set[str]:
    """The package's modules that `path` imports when it runs: not those under `if TYPE_CHECKING:`."""
    names, todo = set(), [ast.parse(path.read_text(), str(path))]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            todo += node.orelse
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
        todo += ast.iter_child_nodes(node)
    return names


def test_modules_import_only_earlier_layers():
    assert {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"} == set(LAYERS)
    for i, name in enumerate(LAYERS):
        later = _runtime_sibling_imports(SRC / f"{name}.py") - set(LAYERS[:i])
        assert not later, (name, later)


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        assert "dataclasses" not in _imported_modules(path), path.name


# -S keeps site-packages' .pth files, which may import anything, out of the check
COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
import padicval.cli
loaded = sorted({"dataclasses", "inspect", "json", "fractions", "decimal"} & set(sys.modules))
assert not loaded, loaded
sys.exit(padicval.cli.main(["slope", "--poly", "x^5+2*x^3+3", "--prime", "5"]))
"""


def test_cold_import_of_the_cli_loads_only_what_every_command_needs():
    result = subprocess.run([sys.executable, "-S", "-c", COLD_START, str(SRC.parent)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "E=1/2 N=2/1\n"
