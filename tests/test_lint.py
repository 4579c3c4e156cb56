"""No float equality on sigma outside the paper's case tables.

The closed forms are continuous through the special points of sigma, and
the certificate gates read the leading orders of ``cone.q_order``, which
decide from the exact factors e and H.  Only the two tables that
transcribe the paper's cases may compare sigma with == or !=.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kgblowup"
CASE_TABLES = {"classify_mass_behavior", "corollary_case_check"}


def _mentions_sigma(node):
    return any(
        (isinstance(n, ast.Name) and n.id == "sigma")
        or (isinstance(n, ast.Attribute) and n.attr == "sigma")
        for n in ast.walk(node)
    )


def sigma_equalities(source: str):
    """Lines of the == and != comparisons involving sigma outside CASE_TABLES."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and func not in CASE_TABLES:
            func = node.name
        if (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and _mentions_sigma(node)
            and func not in CASE_TABLES
        ):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_checker_finds_sigma_equality():
    source = "def gate(p, sigma):\n    x = 1.0 + p.sigma != 0.0\n    return sigma == -1.0\n"
    assert sigma_equalities(source) == [2, 3]
    assert sigma_equalities(source.replace("gate", "corollary_case_check")) == []


def test_no_sigma_equality_outside_the_case_tables():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in sigma_equalities(path.read_text())
    ]
    assert found == []
