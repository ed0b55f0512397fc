"""Exact arithmetic: dense integer polynomials and sparse rational matrices.

Everything in this module is exact.  Coefficient sums of the genus
polynomials reach 2**e, so arbitrary-precision integers are mandatory and
no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class IntPolynomial:
    """Dense univariate polynomial in ``z`` over the integers.

    ``coeffs[i]`` is the coefficient of ``z**i``.  Trailing zeros are
    stripped, so the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> IntPolynomial:
        return cls()

    @classmethod
    def one(cls) -> IntPolynomial:
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> IntPolynomial:
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def coeff_sum(self) -> int:
        """Sum of all coefficients, i.e. the value at z = 1."""
        return sum(self.coeffs)

    def evaluate(self, x):
        """Evaluate at ``x`` (int, Fraction, ...) by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
        if not self.coeffs:
            return "0"
        parts = []
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
            if not parts:
                parts.append(f"-{term}" if c < 0 else term)
            else:
                parts.append(f"- {term}" if c < 0 else f"+ {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> IntPolynomial:
        return cls(data["coeffs"])


def _reduced_echelon(rows: Iterable[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse rows, as ``{pivot column: row}``.

    A row maps column -> nonzero Fraction.  Each incoming row is reduced
    against the pivot rows it touches; a nonzero remainder is scaled to 1 at
    its lowest column, which becomes a new pivot and is cleared from the
    earlier pivot rows.  The pivot rows therefore stay fully reduced, and
    the result is the unique RREF of the rows' span, whatever their order.
    The input rows are not modified.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    # Taken in decreasing order of their lowest column, most rows become
    # pivots left of every earlier pivot row, so little needs clearing:
    # at order 6 this does about a fifth of the arithmetic of the given order.
    for source in sorted(filter(None, rows), key=min, reverse=True):
        row = dict(source)
        for col in [c for c in source if c in pivots]:
            _clear_column(row, col, pivots[col])
        if not row:
            continue
        lead = min(row)
        inv = 1 / row[lead]
        row = {j: v * inv for j, v in row.items()}
        for prow in pivots.values():
            if lead in prow:
                _clear_column(prow, lead, row)
        pivots[lead] = row
    return pivots


def _clear_column(row: dict[int, Fraction], col: int, prow: dict[int, Fraction]) -> None:
    """Clear ``col`` from ``row`` by subtracting ``row[col]`` times ``prow`` (1 at ``col``)."""
    factor = row[col]
    for j, v in prow.items():
        w = row.get(j, 0) - factor * v
        if w:
            row[j] = w
        else:
            del row[j]


class RationalMatrix:
    """Matrix over the exact rationals, stored as sparse rows.

    Each row is a ``{column: Fraction}`` dict without zero entries; ``rank``,
    ``solve`` and ``nullspace`` share one exact sparse eliminator.
    """

    __slots__ = ("rows", "num_cols")

    def __init__(self, rows: Iterable[Mapping[int, object]], num_cols: int) -> None:
        """Rows are ``{column: value}`` mappings; zero values are dropped."""
        self.num_cols = num_cols
        self.rows = tuple({j: Fraction(x) for j, x in row.items() if x} for row in rows)
        for row in self.rows:
            if row and (min(row) < 0 or max(row) >= num_cols):
                raise ValueError(f"column outside range({num_cols}) in row {row}")

    def rank(self) -> int:
        return len(_reduced_echelon(self.rows))

    def solve(self, target: Sequence) -> list[Fraction] | None:
        """One exact solution ``x`` of ``self @ x = target``, or ``None``.

        Free variables are set to zero, so the solution is deterministic.
        """
        b = [Fraction(t) for t in target]
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
            x[col] = row.get(m, Fraction(0))
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
                    vectors[j][col] = -v
        return list(vectors.values())
