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


class TableRow:
    """One row of the order-4 table: the published values and what verification computed.

    ``computed_gamma`` and ``computed_interlace`` are set by
    ``verify_golden_table`` after construction.
    """

    computed_gamma: IntPolynomial
    computed_interlace: str

    def __init__(
        self,
        row: int,
        label: str,
        diagram: ChordDiagram,
        interlace: str,
        expected_gamma: IntPolynomial,
        published_gamma: str,
        basis: bool = False,
        published_relation: dict[str, int] | None = None,
        computed_relation: dict[str, int] | None = None,
        issues: list[str] | None = None,
    ) -> None:
        self.row = row
        self.label = label
        self.diagram = diagram
        self.interlace = interlace
        self.expected_gamma = expected_gamma
        self.published_gamma = published_gamma
        self.basis = basis
        self.published_relation = published_relation
        self.computed_relation = computed_relation
        self.issues = [] if issues is None else issues

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
    from the exact quotient solution.
    """
    data = load_golden_table()
    rows: list[TableRow] = []
    basis_diagrams: list[ChordDiagram] = []
    basis_labels: list[str] = []
    for entry in data["order4"]:
        row = TableRow(
            row=entry["row"],
            label=entry["label"],
            diagram=ChordDiagram.parse(entry["word"]),
            interlace=entry["interlace"],
            expected_gamma=IntPolynomial(entry["gamma"]),
            published_gamma=entry["published_gamma"],
            basis=entry["basis"],
            published_relation=entry["relation"],
        )
        row.computed_gamma = pd_genus_polynomial(row.diagram)
        row.computed_interlace = str(row.diagram.interlace_sequence())
        rows.append(row)
        if row.basis:
            basis_diagrams.append(row.diagram)
            basis_labels.append(row.label)
        published = entry.get("published_label")
        if published and published != entry["label"]:
            row.issues.append(
                f"published subscript {published} contradicts row position {entry['row']}"
            )

    errata = [dict(note) for note in load_errata_notes()]
    for row in rows:
        if not row.gamma_matches:
            errata.append(
                {
                    "rows": [row.row],
                    "kind": "verification-failure",
                    "note": f"computed gamma {row.computed_gamma} differs from "
                    f"expected {row.expected_gamma}",
                }
            )
        if row.computed_gamma.coeff_sum() != 1 << row.diagram.order:
            errata.append(
                {
                    "rows": [row.row],
                    "kind": "verification-failure",
                    "note": "computed gamma breaks the coefficient-sum law",
                }
            )
        if _parse_published_sum(row.published_gamma) != 1 << row.diagram.order:
            row.issues.append(
                f"published value {row.published_gamma} sums to "
                f"{_parse_published_sum(row.published_gamma)}, not 2^4 = 16"
            )
        if row.computed_interlace != row.interlace:
            errata.append(
                {
                    "rows": [row.row],
                    "kind": "verification-failure",
                    "note": f"computed interlace sequence {row.computed_interlace} "
                    f"differs from {row.interlace}",
                }
            )
        if not row.basis:
            coeffs = express_modulo_4T(row.diagram, basis_diagrams)
            relation = {
                basis_labels[i]: int(c) for i, c in enumerate(coeffs) if c
            }
            row.computed_relation = relation
            if row.published_relation is not None and relation != row.published_relation:
                row.issues.append(
                    f"published relation {row.published_relation} replaced by "
                    f"computed relation {relation}"
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


def small_golden_values() -> list[tuple[ChordDiagram, IntPolynomial]]:
    """The published genus polynomials for orders 1..3, in published order."""
    data = load_golden_table()
    return [
        (ChordDiagram.parse(entry["word"]), IntPolynomial(entry["gamma"]))
        for entry in data["small"]
    ]
