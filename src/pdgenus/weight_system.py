"""The partial-dual genus polynomial and its four-term-relation machinery.

The polynomial of a diagram (or map) G sums z**genus(G^A) over all 2^e
edge subsets A; its coefficients always add up to 2^e.  A function on
chord diagrams is a weight system when the alternating sum over every
four-term quadruple vanishes; the checks in this module verify that
exhaustively at desk scale, compute the dimensions of the quotient
spaces, and exercise the structural properties (multiplicativity over
connected sums, dependence only on the interlace graph).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .diagrams import (
    ChordDiagram,
    _class_id,
    _class_sources,
    _classes,
    enumerate_diagrams,
    generate_4T_quadruples,
    product,
)
from .maps import CombinatorialMap
from .polynomials import IntPolynomial, RationalMatrix


class NotABasisError(ValueError):
    """The proposed basis is linearly dependent modulo the four-term span."""


class NoSolutionError(ValueError):
    """The target diagram is not expressible over the proposed basis."""


# -- the genus polynomial -------------------------------------------------


def _genus_distribution(m: CombinatorialMap) -> IntPolynomial:
    e = m.num_edges
    counts = [0] * (e // 2 + 2)
    if e == 0:
        counts[0] = 1  # the empty map: one subset, no surface
    else:
        # G^(A^c) is the Euler dual of G^A, of the same genus, so one genus
        # per complementary pair: the subsets without the top edge.  Its two
        # boundary walks, of A and of A^c, then visit every subset once.
        for mask in range(1 << (e - 1)):
            counts[m.genus_of_partial_dual(mask)] += 2
    return IntPolynomial(counts)


@lru_cache(maxsize=None)
def _gamma(diagram: ChordDiagram) -> IntPolynomial:
    """The polynomial of a diagram class, walked only for prime diagrams.

    The polynomial of a connected sum is the product of its factors'
    (Gross, Mansour and Tucker, EJC 2020), so a connected sum is the
    product over its ``join_decompose()`` factors, and only a prime diagram
    is walked.  Equal diagrams share one cache entry: one per rotation class.
    """
    factors = diagram.join_decompose()
    if len(factors) > 1:
        return math.prod(_gamma(f) for f in factors)
    return _genus_distribution(diagram.to_map())


def pd_genus_polynomial(g: ChordDiagram | CombinatorialMap) -> IntPolynomial:
    """Genus generating function over all partial duals of ``g``.

    Each genus comes from two spanning-subgraph boundary counts, without
    building the partial dual; the test suite checks the result against
    the genera of the partial duals themselves.  A chord diagram takes the
    product of its ``join_decompose()`` factors' polynomials, and only a
    prime diagram is walked.
    """
    if isinstance(g, ChordDiagram):
        return _gamma(g)
    return _genus_distribution(g)


def _gamma_table(n: int) -> tuple[IntPolynomial, ...]:
    """The polynomial of every class of order n, by class id, from ``_class_sources``.

    The tables of orders 0..n are filled bottom-up, each entry from its
    source: a product of two lower-order entries, a copy of an earlier
    entry of the same order, or ``pd_genus_polynomial`` of the class's
    diagram, the only entries walked.  Not cached.
    """
    tables: list[list[IntPolynomial]] = []
    for k in range(n + 1):
        table: list[IntPolynomial] = []
        for diagram, source in zip(enumerate_diagrams(k), _class_sources(k)):
            if len(source) == 4:
                k1, i1, k2, i2 = source
                table.append(tables[k1][i1] * tables[k2][i2])
            else:
                table.append(table[source[0]] if source else pd_genus_polynomial(diagram))
        tables.append(table)
    return tuple(tables[n])


# -- four-term quadruples --------------------------------------------------

# A quadruple (d1, d2, d3, d4) of class ids satisfies the four-term
# relation when f(d1) - f(d2) + f(d3) - f(d4) = 0.


def _unpacked(quadruples: tuple[int, ...], n: int) -> Iterator[tuple[int, int, int, int]]:
    """The class ids of each packed order-n quadruple of ``generate_4T_quadruples``, in order."""
    w = len(enumerate_diagrams(n)).bit_length()
    mask = (1 << w) - 1
    for q in quadruples:
        yield q >> 3 * w, q >> 2 * w & mask, q >> w & mask, q & mask


def check_4T(n: int, threads: int = 1) -> dict:
    """Evaluate the genus polynomial's alternating sum on every quadruple of order n.

    Each class's polynomial is read by class id from the order's table
    (``_gamma_table``), which walks one class per orbit under one-vertex
    partial duality and mirror image and multiplies or copies the rest, and
    is summed over the quadruples' class ids in this process, each as one
    exact integer: its value at a power of two wide enough that a sum is
    zero only for a zero residual.  Returns a report with the quadruple count and all
    nonzero residuals; the paper's theorem is that there are none.
    ``threads`` is ignored: any value of at least 1 runs the same loop, and
    a value below 1 raises ``ValueError`` before any work.  The keyword
    remains only for existing callers and may be removed.
    """
    n = operator.index(n)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    quadruples = generate_4T_quadruples(n)
    diagrams = enumerate_diagrams(n)
    table = _gamma_table(n)
    # Each polynomial as its value at z = 2**shift.  A residual's coefficients
    # are then below 2**(shift - 1) in size, so its value at z is zero only
    # when every coefficient is.  The shift comes from the table itself, not
    # from n, so that it holds for any tabulated invariant.
    shift = 3 + max((c.bit_length() for p in table for c in p.coeffs), default=0)
    values = [sum(c << shift * k for k, c in enumerate(p.coeffs)) for p in table]

    # A polynomial only for a violation.
    violations = []
    for a, b, c, d in _unpacked(quadruples, n):
        if values[a] - values[b] + values[c] - values[d]:
            violations.append(
                {
                    "quadruple": [str(diagrams[i]) for i in (a, b, c, d)],
                    "residual": (table[a] - table[b] + table[c] - table[d]).to_json(),
                }
            )
    return {
        "n": n,
        "quadruples": len(quadruples),
        "violations": len(violations),
        "violations_list": violations,
    }


# -- the quotient by the four-term span ------------------------------------


def quadruple_vectors(n: int) -> list[dict[int, int]]:
    """Four-term relation rows ``{class id: coefficient}`` of order n, distinct up to sign.

    Each packed quadruple (a, b, c, d) of ``generate_4T_quadruples`` is the
    vector a - b + c - d.  An id that is both a plus and a minus term
    cancels, and the class count N stands for the cancelled id.  With the
    plus pair and the minus pair each sorted, the vector is the int
    ``plus << 2 * w | minus``, where a pair (x, y) is ``x << w | y`` and w
    is the bit length of N; its negation is ``minus << 2 * w | plus``, and
    the lesser of the two stands for both.  A vector whose ids all cancel
    is dropped.  Rows come in increasing order of their ints, one per
    distinct int: no two rows are equal or negations of each other.
    """
    size = len(_classes(n)[1])
    w = size.bit_length()
    mask = (1 << w) - 1
    nothing = size << w | size  # a pair of cancelled ids
    keys = set()
    for q in generate_4T_quadruples(n):
        a, b, c, d = q >> 3 * w, q >> 2 * w & mask, q >> w & mask, q & mask
        if a == b:
            a = b = size
        elif a == d:
            a = d = size
        if c == b:
            c = b = size
        elif c == d:
            c = d = size
        plus = a << w | c if a <= c else c << w | a
        if plus != nothing:
            minus = b << w | d if b <= d else d << w | b
            keys.add(plus << 2 * w | minus if plus <= minus else minus << 2 * w | plus)
    ids = list(range(size))  # one int object per class id, shared by the rows
    vectors = []
    for key in sorted(keys):
        row: dict[int, int] = {}
        for shift, sign in ((3 * w, 1), (2 * w, 1), (w, -1), (0, -1)):
            i = key >> shift & mask
            if i != size:
                i = ids[i]
                row[i] = row.get(i, 0) + sign
        vectors.append(row)
    return vectors


def dim_quotient(n: int) -> int:
    """Dimension of the span of order-n diagrams modulo all four-term relations."""
    n = operator.index(n)
    size = len(_classes(n)[1])
    return size - RationalMatrix(quadruple_vectors(n), size).rank()


@lru_cache(maxsize=None)
def _weight_systems(n: int) -> tuple[dict[int, Fraction], ...]:
    """A basis of the order-n weight systems: the nullspace of the relation rows.

    Each is a sparse ``{class id: value}`` vector.  The tuple and its dicts
    are shared by every caller: do not mutate them.
    """
    return tuple(RationalMatrix(quadruple_vectors(n), len(_classes(n)[1])).nullspace())


@lru_cache(maxsize=8)
def _basis_values(n: int, ids: tuple[int, ...]) -> RationalMatrix:
    """The order-n weight systems' values on a basis of class ids: a row per weight system.

    Raises ``NotABasisError`` when their rank is below the basis size.  A
    cache keeps no exception, so a dependent basis raises on every call,
    and an independent one is built and ranked once while it stays cached.
    """
    values = RationalMatrix(
        ({i: w[b] for i, b in enumerate(ids) if b in w} for w in _weight_systems(n)),
        len(ids),
    )
    if values.rank() != len(ids):
        raise NotABasisError("basis is dependent modulo the four-term relations")
    return values


def express_modulo_4T(
    diagram: ChordDiagram, basis: Sequence[ChordDiagram]
) -> list[Fraction]:
    """Coefficients of a diagram's class over a basis of the quotient space.

    Solves diagram = sum(c_i * basis_i) + (four-term combination) exactly;
    any weight system f then satisfies f(diagram) = sum(c_i * f(basis_i)).
    The order-n weight systems (the relations' nullspace) vanish exactly on
    the relations' span, so matching their values decides the expression.
    """
    n = diagram.order
    if any(b.order != n for b in basis):
        raise NotABasisError("basis diagrams must have the same order as the target")
    values = _basis_values(n, tuple(_class_id(b.word) for b in basis))
    target = _class_id(diagram.word)
    solution = values.solve([w.get(target, 0) for w in _weight_systems(n)])
    if solution is None:
        raise NoSolutionError("target is outside the span of basis and relations")
    return solution


# -- structural property suites ---------------------------------------------


def check_multiplicativity(n1: int, n2: int) -> dict:
    """Verify gamma(product) = gamma(D1) * gamma(D2) over all pairs and cuts.

    ``pd_genus_polynomial`` multiplies over connected-sum factors itself,
    so the products are not evaluated through it: each class of product
    gets one boundary walk of its own.
    """
    walked: dict[ChordDiagram, IntPolynomial] = {}
    checked = 0
    violations = []
    for d1 in enumerate_diagrams(n1):
        g1 = pd_genus_polynomial(d1)
        for d2 in enumerate_diagrams(n2):
            g2 = pd_genus_polynomial(d2)
            expected = g1 * g2
            for cut1 in range(max(2 * n1, 1)):
                for cut2 in range(max(2 * n2, 1)):
                    joined = product(d1, d2, cut1, cut2)
                    checked += 1
                    if joined not in walked:
                        walked[joined] = _genus_distribution(joined.to_map())
                    actual = walked[joined]
                    if actual != expected:
                        violations.append(
                            {
                                "factors": [str(d1), str(d2)],
                                "cuts": [cut1, cut2],
                                "product": str(joined),
                                "expected": expected.to_json(),
                                "actual": actual.to_json(),
                            }
                        )
    return {
        "orders": [n1, n2],
        "checked": checked,
        "violations": len(violations),
        "violations_list": violations,
    }


def _graph_class_key(graph: list[list[int]]) -> tuple[int, ...]:
    """Canonical form of a small graph: lex-least adjacency bits over all relabellings."""
    n = len(graph)
    return min(
        tuple(graph[p[i]][p[j]] for i in range(n) for j in range(i + 1, n))
        for p in itertools.permutations(range(n))
    )


def check_intersection_graph_invariance(n: int) -> dict:
    """Group order-n diagrams by interlace-graph isomorphism; gamma must be constant per class.

    The γ table of ``check_4T`` (``_gamma_table``, through
    ``diagrams._class_sources``) relies on this invariance for mirror
    images, so each member's polynomial comes from its own boundary walk.
    """
    classes: dict[tuple[int, ...], list[ChordDiagram]] = {}
    for d in enumerate_diagrams(n):
        classes.setdefault(_graph_class_key(d.interlace_graph()), []).append(d)
    violations = []
    summaries = []
    for key in sorted(classes):
        members = classes[key]
        polys = [_genus_distribution(d.to_map()) for d in members]
        summaries.append(
            {
                "size": len(members),
                "diagrams": [str(d) for d in members],
                "polynomial": polys[0].to_json(),
            }
        )
        if any(p != polys[0] for p in polys):
            violations.append(
                {
                    "diagrams": [str(d) for d in members],
                    "polynomials": [p.to_json() for p in polys],
                }
            )
    return {
        "n": n,
        "classes": len(classes),
        "violations": len(violations),
        "violations_list": violations,
        "class_list": summaries,
    }
