import ast
import doctest
import importlib
import json
import os
import shlex
import subprocess
import sys

import pytest

import kdom
from kdom.cli import _build_parser


def test_public_names_resolve():
    """Every name in kdom.__all__ exists once on the package and star-imports."""
    assert len(set(kdom.__all__)) == len(kdom.__all__)
    assert [name for name in kdom.__all__ if not hasattr(kdom, name)] == []
    namespace = {}
    exec("from kdom import *", namespace)
    assert set(kdom.__all__) <= namespace.keys()


def test_imports_need_only_the_standard_library():
    """pyproject declares no runtime dependencies; importing kdom loads none.

    Nor does it load dataclasses, whose import (inspect, ast, dis,
    tokenize) would add 10-20 ms to every short-lived process.
    """
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kdom, kdom.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kdom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = out.split()
    assert "kdom" in loaded
    assert "dataclasses" not in loaded
    assert [m for m in loaded if m != "kdom" and m not in sys.stdlib_module_names] == []


def test_import_cli_loads_only_the_layers_invariants_runs():
    """A CLI process loads graphs, domination, connectivity and split up
    front; every other layer waits for the command that uses it."""
    probe = "import sys, kdom.cli\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'kdom')))\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(kdom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["kdom", "kdom.cli", "kdom.connectivity", "kdom.domination", "kdom.graphs", "kdom.split"]


def test_each_public_name_is_its_defining_modules_object():
    for name in kdom.__all__:
        home = importlib.import_module(f"kdom.{kdom._HOME[name]}")
        value = getattr(kdom, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert not hasattr(kdom, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        kdom.no_such_name


def test_readme_examples_run():
    """The README's >>> examples run as a doctest, so a stale one fails."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    result = doctest.testfile(readme, module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_readme_cli_lines_parse():
    """Every kdom line of README's CLI block parses, so a stale option fails."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        block = handle.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parser = _build_parser()
    argvs = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["kdom"]:
            argvs.append(words[1:])
        elif words[:3] == ["python", "-m", "kdom"]:
            argvs.append(words[3:])
    assert len(argvs) == len(block.splitlines())
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's CLI line does not parse: kdom {shlex.join(argv)}")


def test_python_m_kdom_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kdom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "kdom", "check-theorem", "3.1", "--max-n", "3", "--json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["confirmed"] == ["K3"]


def test_sources_parse_under_python_310_grammar():
    """pyproject declares requires-python >= 3.10, so every source file must
    parse with the 3.10 grammar.  This catches newer syntax only (except*,
    for one); a call into a library API added after 3.10 still passes."""
    tests = os.path.dirname(os.path.abspath(__file__))
    package = os.path.dirname(os.path.abspath(kdom.__file__))
    paths = []
    for top in (package, tests):
        for folder, _, files in os.walk(top):
            paths += [os.path.join(folder, f) for f in files if f.endswith(".py")]
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            ast.parse(handle.read(), filename=path, feature_version=(3, 10))


def test_every_function_and_class_in_src_is_referenced():
    """Unused API gets deleted: each function or class defined under
    src/kdom (dunders aside) must be named by some Name or Attribute node
    in src/kdom or tests.  Import aliases and the strings of __all__ are
    not such nodes, so a re-export alone does not count as a use."""
    tests = os.path.dirname(os.path.abspath(__file__))
    package = os.path.dirname(os.path.abspath(kdom.__file__))
    defined = {}
    used = set()
    for top in (package, tests):
        for folder, _, files in os.walk(top):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
                    elif top == package and isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        defined.setdefault(node.name, os.path.relpath(path, package))
    assert len(defined) > 50
    unused = {
        name: path
        for name, path in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused == {}
