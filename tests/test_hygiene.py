"""Source checks on the library: no guard that vanishes under ``python -O``,
no environment knob beyond the documented one, no field sum started
at the order-1 zero, and no root-of-unity sum built from field products."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mtckit"
ALLOWED_ENV = {"MTCKIT_MAX_ORDER"}


def _modules():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, SRC
    for path in paths:
        yield path.relative_to(SRC.parent), ast.parse(path.read_text(), filename=str(path))


def _is_environ(node):
    # os.environ, or a bare environ imported from os
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and isinstance(node.value, ast.Name) and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _env_reads(tree):
    """(line, key or None) for each use of os.environ or os.getenv.

    The key is the literal variable name when there is one; any other use,
    such as iterating the mapping or a computed key, reads as None.
    """
    keyed = set()
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr in ("get", "pop", "setdefault") and _is_environ(func.value))
                or (func.attr == "getenv" and isinstance(func.value, ast.Name) and func.value.id == "os")
            ):
                key = node.args[0]
                keyed.add(id(func.value))
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
            keyed.add(id(node.value))
        if key is not None:
            name = key.value if isinstance(key, ast.Constant) else None
            yield node.lineno, name
    for node in ast.walk(tree):
        if _is_environ(node) and id(node) not in keyed:
            yield node.lineno, None


def test_no_assert_statements():
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert is removed under python -O; raise instead: {found}"


def test_only_documented_environment_reads():
    found = [
        f"{path}:{line} {name}"
        for path, tree in _modules()
        for line, name in _env_reads(tree)
        if name not in ALLOWED_ENV
    ]
    assert not found, f"environment reads other than {sorted(ALLOWED_ENV)}: {found}"


def _is_zero_constant(node):
    # ZERO, or cyclo.ZERO
    if isinstance(node, ast.Attribute):
        return node.attr == "ZERO" and isinstance(node.value, ast.Name) and node.value.id == "cyclo"
    return isinstance(node, ast.Name) and node.id == "ZERO"


def _zero_started_sums(tree):
    """Lines that start a field sum at ZERO: sum(..., ZERO) or a bare
    ``name = ZERO`` inside a function, the accumulator of a hand-written loop."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            start = node.args[1:2] + [k.value for k in node.keywords if k.arg == "start"]
            if any(_is_zero_constant(v) for v in start):
                yield node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Assign)
                    and all(isinstance(t, ast.Name) for t in inner.targets)
                    and _is_zero_constant(inner.value)
                ):
                    yield inner.lineno


def test_no_sums_started_at_zero():
    found = sorted(
        {f"{path}:{line}" for path, tree in _modules() for line in _zero_started_sums(tree)}
    )
    assert not found, f"start exact sums with cyclo.dot, not at the order-1 ZERO: {found}"


def _is_dot(func):
    # dot, or cyclo.dot
    if isinstance(func, ast.Attribute):
        return func.attr == "dot" and isinstance(func.value, ast.Name) and func.value.id == "cyclo"
    return isinstance(func, ast.Name) and func.id == "dot"


def _makes_root_value(node):
    """Whether node calls ``.value()`` (a RootOfUnity entering the field) or
    ``root_of_unity(...)`` anywhere inside it."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Call):
            func = inner.func
            if isinstance(func, ast.Attribute) and func.attr in ("value", "root_of_unity"):
                return True
            if isinstance(func, ast.Name) and func.id == "root_of_unity":
                return True
    return False


def _root_sums_by_products(tree):
    """Lines of dot calls with an argument that builds root-of-unity values."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_dot(node.func):
            args = node.args + [k.value for k in node.keywords]
            if any(_makes_root_value(arg) for arg in args):
                yield node.lineno


def test_no_root_sums_by_field_products():
    found = sorted(
        {f"{path}:{line}" for path, tree in _modules() for line in _root_sums_by_products(tree)}
    )
    assert not found, f"sum root-of-unity multiples with cyclo.root_sums, not cyclo.dot: {found}"
