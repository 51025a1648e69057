"""Every name a hopsynth module imports is referenced in that module, and
every hopsynth name a benchmark script or the perfbench harness imports
exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopsynth"
BENCHMARKS = ROOT / "benchmarks"
PERFBENCH = ROOT / "perfbench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import():
    source = "import json\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(source) == ["line 1: json", "line 2: sep"]


def hopsynth_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each `from hopsynth... import name` in the source,
    and in its string constants that parse as Python, such as a child
    process's program."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hopsynth":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                found += hopsynth_imports(node.value)
            except SyntaxError:  # prose, not a program
                pass
    return found


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule, as in `from hopsynth import retrieval`
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", sorted(BENCHMARKS.glob("*.py")), ids=lambda path: path.name)
def test_benchmark_script_imports_resolve(path):
    imports = hopsynth_imports(path.read_text(encoding="utf-8"))
    assert imports, "a benchmark script that imports nothing from hopsynth"
    assert [f"{m}.{n}" for m, n in imports if not _resolves(m, n)] == []


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda path: path.name)
def test_perfbench_imports_resolve(path):
    # some harness files import nothing from hopsynth, so an empty list passes
    imports = hopsynth_imports(path.read_text(encoding="utf-8"))
    assert [f"{m}.{n}" for m, n in imports if not _resolves(m, n)] == []


def test_perfbench_guard_sees_the_harness_imports():
    found = [imp for path in sorted(PERFBENCH.glob("*.py"))
             for imp in hopsynth_imports(path.read_text(encoding="utf-8"))]
    assert ("hopsynth", "pipeline") in found
    assert ("hopsynth.retrieval", "HashEmbedder") in found


def test_benchmark_guard_reads_child_programs_and_flags_missing_names():
    # bench_memory.py imports hopsynth only in its CHILD program
    source = (BENCHMARKS / "bench_memory.py").read_text(encoding="utf-8")
    assert ("hopsynth.pipeline", "build_index") in hopsynth_imports(source)
    program = 'CHILD = """\nfrom hopsynth.pipeline import build_index, no_such_name\n"""\n'
    missing = [(m, n) for m, n in hopsynth_imports(program) if not _resolves(m, n)]
    assert missing == [("hopsynth.pipeline", "no_such_name")]
    assert not _resolves("hopsynth", "no_such_module")
