"""Golden reference data for small diagrams, with live verification.

The shipped table records the published genus polynomials, interlace
sequences and quotient relations for all diagrams of order <= 4, keyed
by canonical word.  The published values are treated as claims: loading
the table re-derives every value, re-solves every relation over the
basis rows by exact linear algebra, and reports the known publication
defects (two subscript typos and one polynomial misprint) instead of
silently patching them.
"""

from __future__ import annotations

import ast
import json
import operator
import re
from importlib import resources
from typing import NamedTuple

from .diagrams import ChordDiagram
from .polynomials import IntPolynomial
from .weight_system import express_modulo_4T, pd_genus_polynomial


def _load(name: str) -> dict:
    with resources.files("pdgenus.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_golden_table() -> dict:
    return _load("golden_table.json")


def load_errata_notes() -> list[dict]:
    return _load("golden_errata.json")["errata"]


class TableRow(NamedTuple):
    """One row of the order-4 table: the published values, then what verification computed."""

    row: int
    label: str
    diagram: ChordDiagram
    interlace: str
    expected_gamma: IntPolynomial
    published_gamma: str
    basis: bool
    published_relation: dict[str, int] | None
    computed_gamma: IntPolynomial
    computed_interlace: str
    computed_relation: dict[str, int] | None
    issues: list[str]

    @property
    def gamma_matches(self) -> bool:
        return self.computed_gamma == self.expected_gamma

    def to_json(self) -> dict:
        return {
            "row": self.row,
            "label": self.label,
            "word": str(self.diagram),
            "interlace": self.computed_interlace,
            "gamma": self.computed_gamma.to_json()["coeffs"],
            "gamma_text": str(self.computed_gamma),
            "expected_gamma": self.expected_gamma.to_json()["coeffs"],
            "published_gamma": self.published_gamma,
            "basis": self.basis,
            "relation": self.computed_relation,
            "issues": self.issues,
        }


def verify_golden_table() -> tuple[list[TableRow], list[dict]]:
    """Recompute the order-4 table and collect discrepancy reports.

    Returns the verified rows plus an errata list combining the shipped
    diagnosis notes with everything the verification itself finds:
    coefficient sums that contradict the subset count, published labels
    that contradict the row position, and published relations that differ
    from the exact quotient solution.  Each row is built once, complete,
    in a single pass over the table.
    """
    entries = load_golden_table()["order4"]
    basis = {e["label"]: ChordDiagram.parse(e["word"]) for e in entries if e["basis"]}
    basis_diagrams = list(basis.values())
    errata = load_errata_notes()
    rows = []
    for entry in entries:
        row, published_gamma = entry["row"], entry["published_gamma"]
        diagram = ChordDiagram.parse(entry["word"])
        expected = IntPolynomial(entry["gamma"])
        gamma = pd_genus_polynomial(diagram)
        interlace = str(diagram.interlace_sequence())
        failures = []
        if gamma != expected:
            failures.append(f"computed gamma {gamma} differs from expected {expected}")
        if gamma.coeff_sum() != 1 << diagram.order:
            failures.append("computed gamma breaks the coefficient-sum law")
        if interlace != entry["interlace"]:
            failures.append(
                f"computed interlace sequence {interlace} differs from {entry['interlace']}"
            )
        errata += ({"rows": [row], "kind": "verification-failure", "note": f} for f in failures)

        issues = []
        published = entry.get("published_label")
        if published and published != entry["label"]:
            issues.append(f"published subscript {published} contradicts row position {row}")
        published_sum = _parse_published_sum(published_gamma)
        if published_sum != 1 << diagram.order:
            issues.append(
                f"published value {published_gamma} sums to {published_sum}, not 2^4 = 16"
            )
        relation = None
        if not entry["basis"]:
            coeffs = express_modulo_4T(diagram, basis_diagrams)
            relation = {label: int(c) for label, c in zip(basis, coeffs) if c}
            if entry["relation"] is not None and relation != entry["relation"]:
                issues.append(
                    f"published relation {entry['relation']} replaced by "
                    f"computed relation {relation}"
                )

        rows.append(
            TableRow(
                row, entry["label"], diagram, entry["interlace"], expected, published_gamma,
                entry["basis"], entry["relation"], gamma, interlace, relation, issues,
            )
        )
    return rows, errata


_SUM_OPS = {ast.Add: operator.add, ast.Mult: operator.mul, ast.Pow: operator.pow}


def _parse_published_sum(text: str) -> int:
    """Coefficient sum of a published polynomial string: its value at z = 1.

    Only integer literals joined by ``+``, ``*`` and ``^`` are accepted;
    anything else raises ``ValueError``.
    """
    expr = re.sub(r"(?<=[0-9)])(?=[z(])", "*", text)  # implicit products like 8z, 4(...)
    expr = expr.replace("z", "1").replace("^", "**")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"not a published polynomial: {text!r}") from exc
    return _sum_value(tree.body)


def _sum_value(node: ast.AST) -> int:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.BinOp) and type(node.op) in _SUM_OPS:
        return _SUM_OPS[type(node.op)](_sum_value(node.left), _sum_value(node.right))
    raise ValueError(f"not part of a published polynomial: {ast.unparse(node)}")
