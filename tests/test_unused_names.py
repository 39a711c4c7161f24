"""Every top-level function or class of the package and of the test
helpers is public or used.

A definition in ``src/asymlogic/`` passes when ``asymlogic.__all__`` lists
it, or when its name appears outside its own body in the package, the
scripts, the benchmark or ``pyproject.toml`` (whose strings name the CLI's
entry point).  A definition in ``tests/helpers.py`` or
``tests/strategies.py`` passes when its name appears outside its own body
in a module under ``tests/``.  A name counts as a NAME token; in
``pyproject.toml`` the names inside string values count too.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import asymlogic

ROOT = Path(__file__).resolve().parent.parent


def _names(text: str, strings: bool = False):
    """``(name, line)`` for each NAME token; with ``strings``, also the
    names in each string's value, at the string's line."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]
        elif strings and tok.type == tokenize.STRING:
            value = ast.literal_eval(tok.string)
            yield from ((name, tok.start[0]) for name, _ in _names(value))


def _definitions(path: Path):
    """``(name, first line, last line)`` of each top-level function or
    class, decorators included."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _unused(root: Path) -> list[str]:
    """``module.name`` of each definition under ``root`` that is neither
    public nor named: of the package, and of the test helpers."""
    package = sorted((root / "src" / "asymlogic").glob("*.py"))
    sources = package + sorted((root / "scripts").glob("*.py"))
    sources += sorted((root / "bench").glob("*.py"))
    tests = sorted((root / "tests").glob("*.py"))
    helpers = [path for path in tests
               if path.stem in ("helpers", "strategies")]
    return (_unnamed(package, sources + [root / "pyproject.toml"],
                     asymlogic.__all__)
            + _unnamed(helpers, tests))


def _unnamed(
    defined: list[Path], sources: list[Path], public=()
) -> list[str]:
    """``module.name`` of each definition in ``defined`` that ``public``
    does not list and no file of ``sources`` names outside its body."""
    found: dict[str, list[tuple[Path, int]]] = {}
    for path in sources:
        text = path.read_text()
        for name, line in _names(text, strings=path.suffix == ".toml"):
            found.setdefault(name, []).append((path, line))
    unused = []
    for path in defined:
        for name, first, last in _definitions(path):
            if name not in public and not any(
                where != path or not first <= line <= last
                for where, line in found.get(name, ())
            ):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_definition_is_public_or_named():
    assert _unused(ROOT) == []


def test_a_name_used_only_in_its_own_body_is_flagged(tmp_path):
    package = tmp_path / "src" / "asymlogic"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def walk(n):\n"
        "    return walk(n - 1) if n else 0\n"
        "\n"
        "\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class Entry:\n"
        "    pass\n"
        "\n"
        "\n"
        "X = used()\n"
    )
    (tmp_path / "pyproject.toml").write_text(
        '[project.scripts]\nx = "asymlogic.mod:Entry"\n'
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    # a helper is named by the tests, here by ``test_mod.py`` and by the
    # body of another helper; the package's ``walk`` does not name one
    (tests / "helpers.py").write_text(
        "def reference():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def used():\n"
        "    return reference()\n"
        "\n"
        "\n"
        "def walk():\n"
        "    return 0\n"
    )
    (tests / "test_mod.py").write_text("from .helpers import used\n")
    assert _unused(tmp_path) == ["mod.walk", "helpers.walk"]
