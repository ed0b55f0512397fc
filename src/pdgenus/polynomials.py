"""Exact arithmetic: dense integer polynomials and sparse rational matrices.

Everything in this module is exact.  Coefficient sums of the genus
polynomials reach 2**e, so arbitrary-precision integers are mandatory and
no floating point is used anywhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class IntPolynomial:
    """Dense univariate polynomial in ``z`` over the integers.

    ``coeffs[i]`` is the coefficient of ``z**i``.  Trailing zeros are
    stripped, so the zero polynomial has an empty coefficient tuple.  A
    coefficient that is not an integer (a float, a string, a Fraction)
    raises ``TypeError`` instead of being truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff_sum(self) -> int:
        """Sum of all coefficients, i.e. the value at z = 1."""
        return sum(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        """Canonical ascending text form, e.g. ``2 + 10z + 4z^2``."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "z" if mag == 1 else f"{mag}z"
            else:
                term = f"z^{i}" if mag == 1 else f"{mag}z^{i}"
            terms.append((c, term))
        return _signed_sum(terms)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """``(coefficient, text of its magnitude)`` terms as ``-a + b - c``; none read ``0``."""
    parts = []
    for c, term in terms:
        if not parts:
            parts.append(f"-{term}" if c < 0 else term)
        else:
            parts.append(f"- {term}" if c < 0 else f"+ {term}")
    return " ".join(parts) if parts else "0"


def _reduced_echelon(rows: Iterable[Mapping[int, int | Fraction]]) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of sparse rows, as ``{pivot column: row}``.

    A row maps column -> nonzero int or Fraction and is scaled to integers.
    Each pivot row is divided by the gcd of its entries, pivot entry
    positive: it is the row of the unique RREF, whatever the row order,
    times a positive integer, and the RREF entry at column j is
    ``row[j] / row[pivot]``.  The input is not modified.

    A row ``{a: x, b: -x}`` says that columns a and b are equal modulo the
    rows.  Such columns are merged first, each into the larger one (a
    four-term quotient has many: 853 of the 4 477 rows of order 6).  Only
    the rows that hold a merged column are rewritten in the surviving
    columns; the rest are eliminated as the caller's objects, and a copy of
    a rewritten row reduces to zero.  A merged column is below its root and
    in no eliminated row, so it is a pivot: a merged column c with root r
    gets the RREF row of ``x_c - x_r``, ``{c: 1, r: -1}`` if r is free, else
    r's pivot row with its entry moved from r to c.
    """
    rows, merged = _identify([_integral(row) for row in rows if row])
    pivots = _eliminate(rows)
    for col, root in merged.items():
        prow = pivots.get(root)
        if prow is None:
            pivots[col] = {col: 1, root: -1}
        else:
            row = {col: prow[root]}
            row.update(item for item in prow.items() if item[0] != root)
            pivots[col] = row
    return pivots


def _integral(row: Mapping[int, int | Fraction]) -> Mapping[int, int]:
    """``row`` itself if its entries are ints, else times the lcm of their denominators."""
    if {int}.issuperset(map(type, row.values())):
        return row
    scale = math.lcm(*[v.denominator for v in row.values()])
    return {j: v.numerator * (scale // v.denominator) for j, v in row.items()}


def _identify(rows: list[Mapping[int, int]]) -> tuple[list[Mapping[int, int]], dict[int, int]]:
    """The rows left once the columns of every row ``{a: x, b: -x}`` are merged.

    Returns those rows and ``{merged column: root}``.  Each pair's columns
    are merged into the larger one; then only the rows that hold a merged
    column are rewritten in the roots: lesser column first, its entry
    positive, each distinct rewritten row once.  The other rows come first,
    as the caller's own objects.  A pair that the rewriting makes is left
    to the elimination.  Pair-free input comes back as it is, with ``{}``.
    """
    merged: dict[int, int] = {}
    for row in rows:
        if len(row) == 2 and sum(row.values()) == 0:
            a, b = sorted(_root(merged, j) for j in row)
            if a != b:
                merged[a] = b
    if not merged:
        return rows, merged
    for col in merged:
        _root(merged, col)  # so that merged[col] is col's root
    kept, rewritten = [], {}
    for row in rows:
        if merged.keys().isdisjoint(row):
            kept.append(row)
            continue
        sums: dict[int, int] = {}
        for j, v in row.items():
            r = merged.get(j, j)
            sums[r] = sums.get(r, 0) + v
        key = tuple(sorted(item for item in sums.items() if item[1]))
        if key:
            rewritten[key if key[0][1] > 0 else tuple([(j, -v) for j, v in key])] = None
    return kept + list(map(dict, rewritten)), merged


def _root(merged: dict[int, int], col: int) -> int:
    """The column that ``col`` was merged into, followed to the end; the path is shortened."""
    root = col
    while root in merged:
        root = merged[root]
    while col != root:
        merged[col], col = root, merged[col]
    return root


def _eliminate(rows: list[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """The primitive RREF rows of integer rows, eliminated one incoming row at a time.

    Each incoming row is reduced against the pivot rows it touches; a nonzero
    remainder becomes a pivot at its lowest column, which is then cleared
    from the earlier pivot rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    # Taken in decreasing order of their lowest column, most rows become
    # pivots left of every earlier pivot row, so little needs clearing:
    # at order 6 this does about a fifth of the arithmetic of the given order.
    for source in sorted(rows, key=min, reverse=True):
        row = dict(source)
        for col in [c for c in source if c in pivots]:
            _clear_column(row, col, pivots[col])
        if not row:
            continue
        lead = min(row)
        _make_primitive(row, lead)
        for pcol, prow in pivots.items():
            if lead in prow:
                _clear_column(prow, lead, row)
                _make_primitive(prow, pcol)
        pivots[lead] = row
    return pivots


def _clear_column(row: dict[int, int], col: int, prow: dict[int, int]) -> None:
    """``row = a*row - b*prow`` for ``a/b = prow[col]/row[col]`` in lowest terms (``a > 0``)."""
    g = math.gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in prow.items():
        w = row.get(j, 0) - b * v
        if w:
            row[j] = w
        else:
            del row[j]


def _make_primitive(row: dict[int, int], pivot: int) -> None:
    """Divide ``row`` by the gcd of its entries, signed so that ``row[pivot]`` is positive."""
    g = math.gcd(*row.values()) if row[pivot] > 0 else -math.gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g


def _exact(x: object) -> Fraction:
    """``x`` as a Fraction; a float is refused, as its binary value is seldom the number meant."""
    if isinstance(x, float):
        raise TypeError(f"inexact value {x!r}: give an int, a Fraction or a decimal string")
    return Fraction(x)


class RationalMatrix:
    """Matrix over the exact rationals, stored as sparse rows.

    Each row is a ``{column: value}`` dict without zero entries, each value
    an ``int`` or a ``Fraction``; ``rank``, ``solve`` and ``nullspace`` share
    one exact sparse eliminator, which works on integer rows.
    """

    __slots__ = ("rows", "num_cols")

    def __init__(self, rows: Iterable[Mapping[int, object]], num_cols: int) -> None:
        """Rows are ``{column: value}`` mappings; zeros are dropped, floats raise ``TypeError``."""
        num_cols = operator.index(num_cols)
        if num_cols < 0:
            raise ValueError(f"num_cols {num_cols} is negative")
        self.num_cols = num_cols
        # an int is kept as it is; calling _exact on every entry made the build 12% slower.
        # A column is read as num_cols is: 1.0 raises TypeError, True is stored as 1.
        self.rows = tuple(
            {operator.index(j): x if type(x) is int else _exact(x) for j, x in row.items() if x}
            for row in rows
        )
        columns = set(range(num_cols))
        for row in self.rows:
            if not row.keys() <= columns:
                raise ValueError(f"column outside range({num_cols}) in row {row}")

    def rank(self) -> int:
        return len(_reduced_echelon(self.rows))

    def solve(self, target: Sequence) -> list[Fraction] | None:
        """One exact solution ``x`` of ``self @ x = target``, or ``None``.

        Free variables are set to zero, so the solution is deterministic.
        """
        b = [_exact(t) for t in target]
        if len(b) != len(self.rows):
            raise ValueError("target length does not match the row count")
        m = self.num_cols
        pivots = _reduced_echelon(
            {**row, m: t} if t else row for row, t in zip(self.rows, b)
        )
        if m in pivots:
            return None
        x = [Fraction(0)] * m
        for col, row in pivots.items():
            x[col] = Fraction(row.get(m, 0), row[col])
        return x

    def nullspace(self) -> list[dict[int, Fraction]]:
        """A basis of ``{x : self @ x = 0}``, one sparse vector per free column.

        The vector of free column f is 1 at f and, at each pivot column p,
        minus the entry at f of p's reduced row.  Vectors come in column order.
        """
        pivots = _reduced_echelon(self.rows)
        vectors = {f: {f: Fraction(1)} for f in range(self.num_cols) if f not in pivots}
        for col, row in pivots.items():
            for j, v in row.items():
                if j != col:  # a reduced row is nonzero only at its pivot and at free columns
                    vectors[j][col] = Fraction(-v, row[col])
        return list(vectors.values())
