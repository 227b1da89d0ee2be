"""The error contract: four roots, and the exit code each one maps to."""

import ast
import inspect
import pathlib

import pytest

import padicprob
from padicprob import cli, errors
from padicprob.cli import EXIT_CODES, main

SOURCES = sorted(pathlib.Path(padicprob.__file__).parent.glob("*.py"))
ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.PadicProbError)
]


def _expected_exit(cls):
    for root, key in (
        (errors.RangeError, "parse"),
        (errors.HypothesisViolation, "hypothesis"),
        (errors.InsufficientData, "data"),
    ):
        if issubclass(cls, root):
            return EXIT_CODES[key]
    return EXIT_CODES["domain"]


def test_no_bare_value_error_raised():
    # a refused argument is a RangeError, which is still a ValueError for callers
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_assert_statement():
    # python -O strips assert statements, so the library never relies on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_import_is_used():
    # a deleted call must not leave its import behind; __init__ only re-exports
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


@pytest.mark.parametrize("cls", [errors.InvalidTarget, errors.InvalidLabel, errors.DigitRange])
def test_argument_errors_are_range_errors(cls):
    assert issubclass(cls, errors.RangeError)
    assert issubclass(cls, ValueError)


def test_roots_are_disjoint():
    roots = (errors.RangeError, errors.HypothesisViolation, errors.InsufficientData)
    for cls in ERROR_CLASSES:
        assert sum(issubclass(cls, root) for root in roots) <= 1, cls


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_root(capsys, monkeypatch, cls):
    def handler(args):
        raise cls("refused")

    monkeypatch.setattr(cli, "_cmd_clt", handler)
    rc = main(["clt"])
    captured = capsys.readouterr()
    assert rc == _expected_exit(cls)
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: refused"
