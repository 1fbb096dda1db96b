"""Public values and exports: read-only arrays, tuple views, hashing, names."""

import ast
import importlib
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import jder
from jder.rings import Bimodule, build_ring, dual_numbers, zmod
from jder.solver import AdditiveMap, solve_jordan_derivations
from jder.zmodlin import DimensionMismatch, ZmMatrix, howell_form, slots_contain


def _values():
    """One SubgroupBasis, AdditiveMap and RingElement, each built twice."""
    ring = dual_numbers(4)

    def build():
        return (
            howell_form(ZmMatrix(4, ((2, 1),))),
            solve_jordan_derivations(ring).generators()[0],
            ring.element((5, -1)),
        )

    return build(), build()


@pytest.mark.parametrize("index", [0, 1, 2], ids=["SubgroupBasis", "AdditiveMap", "RingElement"])
def test_as_array_is_read_only(index):
    value = _values()[0][index]
    array = value.as_array()
    assert array.dtype == np.int64
    with pytest.raises(ValueError):
        array.flat[0] = 1


@pytest.mark.parametrize("index", [0, 1, 2], ids=["SubgroupBasis", "AdditiveMap", "RingElement"])
def test_equal_values_hash_equal(index):
    first, second = _values()
    a, b = first[index], second[index]
    assert a is not b and a == b and hash(a) == hash(b)


def test_tuple_views():
    basis, d, x = _values()[0]
    assert basis.generators == ((2, 1), (0, 2))
    assert (basis.modulus, basis.dim) == (4, 2)
    assert x.coeffs == (1, 3)
    assert d.entries == tuple(map(tuple, d.as_array().tolist()))
    assert AdditiveMap.from_flat(d.ring, d.to_flat()) == d


def test_contains_reduces_and_checks_length():
    basis = howell_form(ZmMatrix(4, ((2, 1),)))
    assert basis.contains((6, 7)) and basis.contains(np.array([2, 3]))
    assert basis.coordinates((6, 7)) == basis.coordinates((2, 3)) == (1, 1)
    assert not basis.contains((6, 4))
    for wrong in ((1,), (1, 1, 0)):
        with pytest.raises(DimensionMismatch):
            basis.contains(wrong)


@pytest.mark.parametrize("call, value", [
    (lambda: dual_numbers(4).element([1.7, 0]), "1.7"),
    (lambda: ZmMatrix(4, ((2.5, 1),)), "2.5"),
    (lambda: ZmMatrix(4, (("3", 1),)), "'3'"),
    (lambda: ZmMatrix.from_array(4, np.array([[1.5, 2]])), "1.5"),
    (lambda: howell_form(ZmMatrix(4, ((2, 1),))).contains((2.9, 1.2)), "2.9"),
    (lambda: howell_form(ZmMatrix(4, ((2, 1),))).coordinates(np.array([2.0, 1.0])), "2.0"),
    (lambda: build_ring(4, [[[1.5]]]), "1.5"),
    (lambda: build_ring(4, [[[1]]], unit=(1.7,)), "1.7"),
    (lambda: AdditiveMap(zmod(4), [[2.9]]), "2.9"),
    (lambda: AdditiveMap.from_array(zmod(4), [[1.5]]), "1.5"),
    (lambda: AdditiveMap.from_flat(zmod(4), [1.2]), "1.2"),
    (lambda: Bimodule(zmod(4), zmod(4), 1, [[[1.5]]], [[[1]]]), "1.5"),
    (lambda: slots_contain(4, howell_form(ZmMatrix(4, ((2, 1),))).slots[None], [[2.9, 1.2]]), "2.9"),
], ids=["element", "matrix", "matrix-string", "from-array", "contains", "coordinates", "constants",
        "unit", "map", "map-from-array", "map-from-flat", "bimodule", "slots-contain"])
def test_non_integer_entries_are_refused(call, value):
    with pytest.raises(ValueError, match=f"^entries must be integers, got {re.escape(value)}$"):
        call()


def test_integer_entries_of_every_kind_are_accepted():
    assert dual_numbers(4).element([np.int32(5), True]).coeffs == (1, 1)
    assert ZmMatrix(4, ((2 ** 70 + 1, np.uint8(3)),)).rows == ((1, 3),)
    assert ZmMatrix.from_array(4, np.array([[5, 6]], dtype=np.int16)).rows == ((1, 2),)
    # An empty array has no entry to refuse, whatever its dtype.
    assert ZmMatrix.from_array(4, np.zeros((0, 2))).rows == ()
    assert howell_form(ZmMatrix(4, ((2, 1),))).contains(np.array([6, 7], dtype=np.uint16))


def test_every_export_resolves():
    for name in jder.__all__:
        assert hasattr(jder, name), name
    for info in pkgutil.iter_modules(jder.__path__):
        mod = importlib.import_module(f"jder.{info.name}")
        for name in mod.__all__:
            assert hasattr(mod, name), (info.name, name)
    namespace = {}
    exec("from jder import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(jder.__all__)


# The functions that may contract arrays, each with its reason.
CONTRACTION_ALLOWLIST = {
    ("zmodlin", "einsum_mod"): "the one exact contraction over Z/m",
    ("preorders", "_close"): "boolean reachability: path counts compared with > 0, not over Z/m",
}
CONTRACTIONS = {"einsum", "matmul", "dot", "vdot", "inner", "tensordot"}


def _contractions(tree: ast.AST):
    """(enclosing function, line) of every contraction call or @ in a module."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
               or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in CONTRACTIONS)
        if hit:
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def test_every_contraction_goes_through_einsum_mod():
    found = set()
    for path in sorted(pathlib.Path(jder.__file__).parent.glob("*.py")):
        for function, line in _contractions(ast.parse(path.read_text(encoding="utf-8"))):
            found.add((path.stem, function))
            where = f"{path.name}:{line} in {function}"
            assert (path.stem, function) in CONTRACTION_ALLOWLIST, where
    assert found == set(CONTRACTION_ALLOWLIST)


def test_every_public_method_is_used_or_documented():
    """No undocumented public surface: each public method or property of a class in
    src/jder is used as ``.name`` in src/jder or bench/, or named in backticks in README."""
    package = pathlib.Path(jder.__file__).parent
    root = package.parent.parent
    sources = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources + sorted((root / "bench").glob("*.py"))}
    known = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    readme = (root / "README.md").read_text(encoding="utf-8")
    known |= {word for quoted in re.findall(r"`([^`]*)`", readme)
              for word in re.findall(r"[A-Za-z_]\w*", quoted)}
    undocumented = [
        f"{path.name}: {node.name}.{item.name}"
        for path in sources for node in ast.walk(trees[path])
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_") and item.name not in known
    ]
    assert undocumented == []


def _parameter_names(function: ast.FunctionDef) -> tuple:
    args = function.args
    return (tuple(a.arg for a in args.posonlyargs + args.args),
            args.vararg and args.vararg.arg,
            tuple(a.arg for a in args.kwonlyargs),
            args.kwarg and args.kwarg.arg)


def test_no_public_method_is_redefined_with_other_parameters():
    """A class in src/jder that redefines a public method of a src/jder base class
    keeps its parameter names, so a method reached through the base's signature
    (as ``AdditiveMap.__call__`` reaches ``element``) means the same thing."""
    classes = {}  # name -> (base names, {public method: parameter names})
    for path in sorted(pathlib.Path(jder.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                assert node.name not in classes, f"{path.name}: class {node.name} defined twice"
                classes[node.name] = (
                    [base.id for base in node.bases if isinstance(base, ast.Name)],
                    {item.name: _parameter_names(item) for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not item.name.startswith("_")})

    def ancestors(name):
        for base in classes[name][0]:
            if base in classes:
                yield base
                yield from ancestors(base)

    mismatched = [
        f"{name}.{method} {params} vs {base}.{method} {classes[base][1][method]}"
        for name, (_, methods) in classes.items() for base in ancestors(name)
        for method, params in methods.items()
        if method in classes[base][1] and classes[base][1][method] != params
    ]
    assert mismatched == []
