"""Checks on how the package loads, on the names the benchmark's tracer
wraps, that no module keeps an import or private name it never reads, that
no public name is read only by tests, that the package imports only the
standard library, that none imports ``dataclasses``, that only
``backends`` imports ``http.client``, only ``model`` imports ``threading``
and only ``corpus_io`` checks outside input, and that a stage reads every
configuration field."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import radpragma
from radpragma import cli
from pipeline import pipeline_steps

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.abspath(radpragma.__file__))
SRC = os.path.dirname(PACKAGE)
CORPUS = os.path.join(ROOT, "tests", "fixtures", "corpus.jsonl")

#: What ``radpragma/__init__.py`` exported when it still imported every
#: module, by defining module.
EXPORTS = {
    "backends": ["PatternBackend", "RemoteRewriteBackend"],
    "cleaning": ["DEFAULT_RULES", "REMOVED", "CleaningRule", "apply_rule",
                 "clean_report", "clean_sentence", "evaluate_cleaning"],
    "errors": ["BackendError", "DegenerateTableError", "InputError"],
    "generator": ["GenerationRequest", "RetrievalIndex",
                  "build_generation_prompt", "build_index",
                  "generate_remote", "generate_retrieval"],
    "labeler": ["Lexicon", "default_lexicon", "indication_mentions",
                "label_report", "label_sentence"],
    "metrics": ["KeywordCatalog", "MetricsReport", "bleu2",
                "default_catalog", "evaluate_generation",
                "hallucination_rate", "negative_f1", "positive_f1"],
    "model": ["CONDITIONS", "Condition", "LabelValue", "LabelVector",
              "Report", "Sentence", "normalize_text", "segment_sentences"],
    "stats": ["ContingencyTable2x2", "CorpusSummary", "chi_square_test",
              "conditional_negative_rates", "shift_report", "summarize"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items()
            for name in names]


def _child(code, *args):
    """Run ``code`` in a fresh interpreter with the package importable and
    return the last line it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    return result.stdout.strip().splitlines()[-1]


def test_offline_start_does_not_load_requests():
    # Every CLI stage is a fresh process; only the remote modes need HTTP.
    code = ("import sys, radpragma.cli as cli; cli.default_lexicon(); "
            "print(sorted(m for m in ('requests', 'http.client') "
            "if m in sys.modules))")
    assert _child(code) == "[]"


# The modules each offline stage must load, and those it must not.
HEAVY = ("radpragma.backends", "radpragma.cleaning", "radpragma.generator",
         "radpragma.metrics", "radpragma.stats")
STAGE_IMPORTS = {
    "label": ((), HEAVY),
    "stats": (("radpragma.stats",), HEAVY[:4]),
    "chi2": (("radpragma.stats",), HEAVY[:4]),
    "clean": (("radpragma.cleaning", "radpragma.backends"),
              ("radpragma.generator", "radpragma.metrics", "radpragma.stats")),
    "index": (("radpragma.generator",),
              ("radpragma.cleaning", "radpragma.backends",
               "radpragma.metrics")),
    "generate": (("radpragma.generator",),
                 ("radpragma.cleaning", "radpragma.backends",
                  "radpragma.metrics")),
    "evaluate": (("radpragma.metrics",), HEAVY[:3] + HEAVY[4:]),
}
# As ``python -m radpragma.cli ARGS`` does, then print what was loaded.
RUN_CLI = ("import json, runpy, sys\n"
           "try:\n"
           "    runpy.run_module('radpragma.cli', run_name='__main__',\n"
           "                     alter_sys=True)\n"
           "except SystemExit as exc:\n"
           "    code = exc.code\n"
           "print(json.dumps([code, sorted(sys.modules)]))\n")


@pytest.fixture(scope="module")
def stage_modules(tmp_path_factory):
    """The modules loaded by each offline pipeline stage, each run in its
    own process, in order."""
    _, steps = pipeline_steps(CORPUS, str(tmp_path_factory.mktemp("run")))
    loaded = {}
    for argv in steps:
        code, modules = json.loads(_child(RUN_CLI, *argv))
        assert code == 0, argv[0]
        loaded[argv[0]] = set(modules)
    return loaded


@pytest.mark.parametrize("stage", sorted(STAGE_IMPORTS))
def test_each_stage_loads_only_what_it_runs(stage_modules, stage):
    needed, unneeded = STAGE_IMPORTS[stage]
    loaded = stage_modules[stage]
    assert set(needed) <= loaded
    assert not loaded & set(unneeded)
    assert not loaded & {"concurrent.futures", "http.client", "requests"}
    # dataclasses brings inspect (and with it ast, dis and tokenize).
    assert not loaded & {"dataclasses", "inspect"}
    if stage == "generate":
        assert not loaded & {"hashlib", "logging"}
    if stage == "index":
        assert "logging" not in loaded


def test_import_loads_no_submodule():
    code = ("import json, sys, radpragma; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('radpragma.'))))")
    assert _child(code) == "[]"


@pytest.mark.parametrize("module, name", EXPORTED)
def test_package_exports_resolve_lazily(module, name):
    defining = importlib.import_module(f"radpragma.{module}")
    assert getattr(radpragma, name) is getattr(defining, name)
    assert name in dir(radpragma)
    assert name in radpragma.__all__


def test_package_exports_nothing_else():
    assert sorted(radpragma.__all__) == sorted(n for _, n in EXPORTED)
    with pytest.raises(AttributeError, match="no_such_name"):
        radpragma.no_such_name  # noqa: B018


def test_readme_library_snippet_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["scores"].hallucination_rate == 0.0


def _traced_names():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_every_traced_name_resolves():
    # perfbench/tracer.py wraps these where they are defined; a rename in
    # the package would break its --trace 1 run.
    traced = _traced_names()
    assert traced
    for module_name, path in traced:
        owner = importlib.import_module(f"radpragma.{module_name}")
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
        assert attr in vars(owner), f"{module_name}.{path}"
        assert callable(getattr(owner, attr)), f"{module_name}.{path}"


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _defined_names(tree):
    """The names that the module-level definitions and assignments of
    ``tree`` bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (name.id for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def _unread_names(path):
    """The imports and module-level private names of the module at ``path``
    that nothing in it reads."""
    tree = _parse(path)
    bound = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            bound |= {(alias.asname or alias.name).split(".")[0]
                      for alias in node.names}
    bound |= {name for name in _defined_names(tree)
              if name.startswith("_") and not name.startswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py")))
def test_every_import_and_private_name_is_read(module):
    # The repository has no linter; this catches an import or a private
    # helper a change leaves behind.
    assert _unread_names(os.path.join(PACKAGE, module)) == []


def _imported_modules(tree):
    """The dotted names of the modules that ``tree`` imports absolutely
    anywhere, ``if TYPE_CHECKING:`` blocks and function bodies included.
    ``from a import b`` counts as importing ``a`` and ``a.b``, which may be
    a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _importers(name):
    """The package's modules that import module ``name``."""
    return [module for module in sorted(os.listdir(PACKAGE))
            if module.endswith(".py") and name in
            _imported_modules(_parse(os.path.join(PACKAGE, module)))]


def test_package_imports_only_the_standard_library():
    # pyproject.toml lists no runtime dependency; keep it that way.
    outside = sorted(
        f"{module}: {name}" for module in os.listdir(PACKAGE)
        if module.endswith(".py")
        for name in _imported_modules(_parse(os.path.join(PACKAGE, module)))
        if name.split(".")[0] not in sys.stdlib_module_names | {"radpragma"})
    assert outside == []


def test_only_backends_imports_http_client():
    # backends.RemoteEndpoint is the package's one HTTP client.
    assert _importers("requests") == []
    assert _importers("http.client") == ["backends.py"]


def test_no_module_imports_dataclasses():
    # Its import and the methods it generates for each class would cost
    # every stage process at start-up; records are NamedTuples or
    # model.Frozen classes.
    assert _importers("dataclasses") == []


def test_only_model_imports_threading():
    # model.BoundedMemo is the package's one memo, and holds its one lock.
    assert _importers("threading") == ["model.py"]


def test_only_corpus_io_checks_outside_input():
    # corpus_io owns the URL check (http_url), the reader of the shipped
    # data files (load_packaged) and the JSON-shape check (expect).
    assert _importers("urllib.parse") == ["corpus_io.py"]
    assert _importers("importlib.resources") == ["corpus_io.py"]
    shape_checks = {
        module for module in os.listdir(PACKAGE) if module.endswith(".py")
        for node in ast.walk(_parse(os.path.join(PACKAGE, module)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and {"dict", "list"} & {n.id for n in ast.walk(node.args[1])
                                if isinstance(n, ast.Name)}}
    assert shape_checks <= {"corpus_io.py"}


def test_backends_leaves_normalizing_to_cleaning():
    # cleaning._rewrite is the one normalizer of a backend's answer.
    tree = _parse(os.path.join(PACKAGE, "backends.py"))
    assert "normalize_text" not in {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(tree)}


def _names_read(directory):
    """Every name and attribute that a Python file under ``directory``
    reads."""
    read = set()
    for folder, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".py"):
                for node in ast.walk(_parse(os.path.join(folder, name))):
                    if not isinstance(getattr(node, "ctx", None), ast.Load):
                        continue
                    if isinstance(node, ast.Name):
                        read.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        read.add(node.attr)
    return read


def test_every_public_name_is_read_outside_tests():
    # A module-level public name that is no package export must be read by
    # the package or the benchmark; one that only tests call is dead code.
    read = _names_read(SRC) | _names_read(os.path.join(ROOT, "perfbench"))
    unread = [f"{module}:{name}"
              for module in sorted(os.listdir(PACKAGE))
              if module.endswith(".py")
              for name in _defined_names(_parse(os.path.join(PACKAGE, module)))
              if not name.startswith("_") and name not in radpragma.__all__
              and name not in read]
    assert unread == []


#: The cli functions that resolve, check or record the configuration; a
#: field that only they touch changes nothing a stage does.
CONFIG_PLUMBING = {"resolve_config", "_checked", "_file_values",
                   "_write_run_config"}


def test_every_config_field_is_read_by_a_stage():
    read = set()
    for function in _parse(os.path.join(PACKAGE, "cli.py")).body:
        if (not isinstance(function, ast.FunctionDef)
                or function.name in CONFIG_PLUMBING):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) == "config"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "_endpoint"):
                read.add(ast.literal_eval(node.args[1]))
    assert [name for name in cli.Config.__annotations__
            if name not in read] == []
