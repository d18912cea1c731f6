"""Checks on how the package loads and on the names the benchmark's tracer
wraps."""

import ast
import importlib
import os
import subprocess
import sys

import radpragma

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(radpragma.__file__)))


def test_offline_start_does_not_load_requests():
    # Every CLI stage is a fresh process; only the remote modes need HTTP.
    code = ("import sys, radpragma.cli as cli; cli.default_lexicon(); "
            "print(sorted(m for m in ('requests', 'urllib3') "
            "if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.strip() == "[]"


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
