"""Every name a hopsynth module imports is referenced in that module; every
hopsynth name a benchmark script or the perfbench harness imports, or reads
from an imported hopsynth module, exists; and every module-level function
and class of hopsynth is named by the program, not only by tests."""

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


def _submodule(module: str, name: str) -> str | None:
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None
    return f"{module}.{name}"


def _resolves(module: str, name: str) -> bool:
    # a submodule counts, as in `from hopsynth import retrieval`
    return hasattr(importlib.import_module(module), name) or _submodule(module, name) is not None


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


BENCH_SCRIPTS = sorted([*BENCHMARKS.glob("*.py"), *PERFBENCH.glob("*.py")])
# where a name's binding can change; a `for` loop rebinds its target in its body
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef, ast.For)


def _scope_nodes(scope):
    """The nodes of one scope, and the nested scopes, not what is inside them."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _loop_binding(node, modules) -> dict:
    """`for module in (synthesis, evalharness):` binds `module` to both modules."""
    if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Tuple) and node.iter.elts
            and all(isinstance(e, ast.Name) and e.id in modules for e in node.iter.elts)):
        return {node.target.id: tuple(m for e in node.iter.elts for m in modules[e.id])}
    return {}


def hopsynth_attribute_reads(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of each `name.attr` in the source whose name an
    import in its scope, or an enclosing one, binds to a hopsynth module (or a
    `for` loop over a tuple of them); and of each call `f(name, "attr", ...)`
    on one, such as the tracer's `patch(pipeline, "build_index", ...)`. An
    attribute named by a computed string is not seen. String constants that
    parse as Python, such as a child process's program, are read too."""
    found = []

    def visit(scope, modules):
        modules = dict(modules)
        nodes = list(_scope_nodes(scope))
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hopsynth"):
                for alias in node.names:
                    module = _submodule(node.module, alias.name)
                    if module:
                        modules[alias.asname or alias.name] = (module,)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("hopsynth.") and alias.asname:
                        modules[alias.asname] = (alias.name,)
        for node in nodes:
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.extend((module, node.attr) for module in modules[node.value.id])
            elif (isinstance(node, ast.Call) and len(node.args) >= 2
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                found.extend((module, node.args[1].value) for module in modules[node.args[0].id])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    found.extend(hopsynth_attribute_reads(node.value))
                except SyntaxError:  # prose, not a program
                    pass
            elif isinstance(node, _SCOPES):
                visit(node, {**modules, **_loop_binding(node, modules)})

    visit(ast.parse(source), {})
    return found


@pytest.mark.parametrize("path", BENCH_SCRIPTS, ids=lambda path: path.parent.name + "/" + path.name)
def test_bench_attribute_reads_resolve(path):
    reads = hopsynth_attribute_reads(path.read_text(encoding="utf-8"))
    missing = [f"{m}.{a}" for m, a in reads if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_attribute_guard_sees_the_harness_reads():
    found = {read for path in BENCH_SCRIPTS
             for read in hopsynth_attribute_reads(path.read_text(encoding="utf-8"))}
    assert {
        ("hopsynth._kernels", "numba_enabled"),
        ("hopsynth.pipeline", "build_store"),
        ("hopsynth.pipeline", "counters_conserved"),
        ("hopsynth.evalharness", "HALT_EMPTY"),
        ("hopsynth.pipeline", "run_episode"),  # patched by name
        ("hopsynth.evalharness", "complete"),  # patched in a loop over modules
        ("hopsynth.verification", "search"),
    } <= found


def test_attribute_guard_flags_a_missing_attribute_by_scope():
    program = (
        "from hopsynth import pipeline\n"
        "import hopsynth.retrieval as r\n"
        "def run():\n"
        "    from hopsynth import _kernels\n"
        "    tracer.patch(pipeline, 'no_such_stage')\n"
        "    return _kernels.no_such_kernel(), r.no_such_search, pipeline.build_store\n"
        "    for module in (pipeline, r):\n"
        "        tracer.patch(module, 'embed')\n"
        "def other(_kernels):\n"
        "    return _kernels.items()  # a local name, not the module\n"
        "CHILD = 'from hopsynth import pipeline\\npipeline.no_such_child'\n"
    )
    reads = hopsynth_attribute_reads(program)
    assert sorted(reads) == [
        ("hopsynth._kernels", "no_such_kernel"),
        ("hopsynth.pipeline", "build_store"),
        ("hopsynth.pipeline", "embed"),
        ("hopsynth.pipeline", "no_such_child"),
        ("hopsynth.pipeline", "no_such_stage"),
        ("hopsynth.retrieval", "embed"),
        ("hopsynth.retrieval", "no_such_search"),
    ]
    missing = [(m, a) for m, a in reads if not hasattr(importlib.import_module(m), a)]
    assert missing == [(m, a) for m, a in reads if a.startswith("no_such")]


def test_stage_table_names_resolve_in_the_tracer_order():
    # the CLI and the tracer build `stage_<name>` at run time, where the guards above cannot see
    from hopsynth import pipeline

    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    traced = [ast.literal_eval(node.value) for node in tracing.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]]
    names = [name for _, name, _, _ in pipeline.STAGES]
    assert traced == [tuple(names)]
    assert [name for name in names if not callable(getattr(pipeline, f"stage_{name}", None))] == []


# the definitions of src/hopsynth that only tests name: none, since a reference
# tests compare the pipeline against belongs in tests/oracles.py
TEST_REFERENCES = []


def names_used(tree) -> set[str]:
    """Every name the code under `tree` reads, imports or spells as a string;
    a string that parses as Python, such as a child process's program, is
    read as code too."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
            try:
                found |= names_used(ast.parse(node.value))
            except (SyntaxError, ValueError):  # prose, not a program
                pass
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_hopsynth_definition_is_named_by_the_program():
    # each module-level function and class of src/hopsynth is named by another
    # top-level statement of src/, perfbench/ or benchmarks/; a helper that
    # only tests use belongs in the tests
    statements = [(path, node, names_used(node))
                  for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH_SCRIPTS])
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    unused = [f"{path.stem}.{node.name}" for path, node, _ in statements
              if path.parent == SRC
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not any(node.name in names for _, other, names in statements
                          if other is not node)]
    assert sorted(unused) == TEST_REFERENCES


def test_definition_guard_reads_names_strings_and_child_programs():
    program = ('tracer.patch(pipeline, "stage_pair")\n'
               'CHILD = "from hopsynth.pipeline import build_index\\nrun_eval()"\n')
    assert {"tracer", "patch", "pipeline", "stage_pair", "CHILD", "build_index",
            "run_eval"} <= names_used(ast.parse(program))


# what builds or closes a client; a stage uses the clients the entry points
# (`run_all`, `run_eval`, the stage commands) build and close, but
# `stage_pair`, which the benchmark harness calls without a recognizer
CLIENT_BUILDERS = {"build_backend", "build_embedder", "build_recognizer", "build_examples",
                   "own", "ExitStack"}


def client_builds(source: str) -> dict[str, list[str]]:
    """The names in CLIENT_BUILDERS each module-level `def stage_*` but
    `stage_pair` reads."""
    found = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("stage_")
                and node.name != "stage_pair"):
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
            found[node.name] = sorted(names & CLIENT_BUILDERS)
    return found


def test_stages_but_stage_pair_build_no_clients():
    found = client_builds((SRC / "pipeline.py").read_text(encoding="utf-8"))
    assert set(found) == {"stage_questions", "stage_filter_answers", "stage_queries",
                          "stage_verify"}
    assert {name: names for name, names in found.items() if names} == {}


def test_client_guard_flags_a_stage_that_builds():
    source = ("def stage_x(config, backend=None):\n"
              "    with ExitStack() as built:\n"
              "        return backend or own(built, config_module.build_backend(config))\n"
              "def stage_pair(config):\n"
              "    return build_recognizer(config)\n")
    assert client_builds(source) == {"stage_x": ["ExitStack", "build_backend", "own"]}
