"""One exception base per exit code.  Every error class carries the exit
code and message prefix of its base, nothing raises the root
``BilockError`` itself, and only ``cli.main`` catches it (a clause that
re-raises it unchanged catches nothing)."""

import ast
import inspect
from pathlib import Path

from bilock import errors

from conftest import EXIT_PREFIXES

PACKAGE = Path(errors.__file__).parent


def test_every_error_class_carries_its_code_and_prefix():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__
               and cls is not errors.BilockError]
    assert classes
    for cls in classes:
        assert issubclass(cls, errors.BilockError), cls
        assert cls.code in EXIT_PREFIXES, cls
        assert cls.prefix == EXIT_PREFIXES[cls.code], cls


def _names_root(node):
    return any(isinstance(n, ast.Name) and n.id == "BilockError"
               for n in ast.walk(node))


def _root_catches(node, func=None):
    """(function, line) of each except clause under node that names
    ``BilockError`` and does more than re-raise it."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _root_catches(child, child.name)
            continue
        if (isinstance(child, ast.ExceptHandler) and child.type is not None
                and _names_root(child.type)
                and not (len(child.body) == 1
                         and isinstance(child.body[0], ast.Raise)
                         and child.body[0].exc is None)):
            found.append((func, child.lineno))
        found += _root_catches(child, func)
    return found


def test_root_error_is_neither_raised_nor_caught_below_the_cli():
    raised, caught = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raised += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                   if isinstance(n, ast.Raise) and n.exc is not None
                   and _names_root(n.exc)]
        caught += [(path.stem, func) for func, _ in _root_catches(tree)]
    assert raised == []
    assert caught == [("cli", "main")]
