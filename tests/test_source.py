"""Guards on the package source itself."""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qfold"

# NumPy's extended-precision types are plain float64 on Windows and on
# macOS arm64, so numerics that use them give different results per platform
PLATFORM_FLOAT_NAMES = {"longdouble", "float128", "longfloat"}


def test_source_uses_no_platform_dependent_float_type():
    found = []
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if token.type == tokenize.NAME and token.string in PLATFORM_FLOAT_NAMES:
                    found.append(f"{path.name}:{token.start[0]}: {token.string}")
    assert found == []


ROOT = SRC.parents[1]

# public names that only tests reference, each kept as the plain form that
# tests check a shared or vectorised path against
TEST_REFERENCES = {
    # one pair's squared distance: the reference for squared_distance_matrix
    # and for the distance polynomials' values
    "pair_squared_distance",
    # one pair's distance polynomial, built alone: the reference for the
    # shared-position pair_distance_polys
    "distance_poly",
    # ProblemInstance.from_json: the reader the tests check instance.json
    # with (RunManifest.from_json shares the name)
    "from_json",
    # PBPolynomial.evaluate: the scalar reference for the polynomial tests
    # (ChebyshevFit.evaluate shares the name)
    "evaluate",
}


def _public_definitions(tree):
    """(name, node) of each public top-level function and class, and of each
    public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def _references(tree):
    """(name, line) of every Name, Attribute and ImportFrom alias in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_public_name_is_reached_outside_the_tests():
    # a public name is reached when the package or the benchmark references
    # it anywhere but inside its own definition; a reference that only tests
    # need lives in tests/util.py.  The guard matches names only, not the
    # object a name is bound to: a method passes when any other definition
    # of its name is referenced
    sources = sorted(SRC.glob("*.py"))
    readers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in readers}
    where = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            where.setdefault(name, []).append((path, line))
    unreached = []
    for path in sources:
        for name, node in _public_definitions(trees[path]):
            outside = [
                (p, line) for p, line in where.get(name, [])
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside and name not in TEST_REFERENCES:
                unreached.append(f"{path.name}:{node.lineno}: {name}")
    assert unreached == []
