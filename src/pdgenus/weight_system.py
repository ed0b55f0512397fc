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
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .diagrams import ChordDiagram, class_table, enumerate_diagrams, normalize_labels, product
from .maps import CombinatorialMap
from .polynomials import IntPolynomial, RationalMatrix


class NotABasisError(ValueError):
    """The proposed basis is linearly dependent modulo the four-term span."""


class NoSolutionError(ValueError):
    """The target diagram is not expressible over the proposed basis."""


# -- the genus polynomial -------------------------------------------------


def _genus_distribution(m: CombinatorialMap, explicit: bool) -> IntPolynomial:
    e = m.num_edges
    counts = [0] * (e // 2 + 2)
    if explicit:
        for mask in range(1 << e):
            counts[m.partial_dual(mask).genus()] += 1
    else:
        # one boundary walk per subset serves as v for A and as f for A^c
        bc = [m.spanning_boundary_count(mask) for mask in range(1 << e)]
        for mask in range(1 << e):
            counts[m.genus_of_partial_dual(mask, bc)] += 1
    return IntPolynomial(counts)


@lru_cache(maxsize=None)
def _gamma_of_word(word: tuple[int, ...]) -> IntPolynomial:
    return _genus_distribution(ChordDiagram(word).to_map(), explicit=False)


def pd_genus_polynomial(
    g: ChordDiagram | CombinatorialMap, method: str = "fast"
) -> IntPolynomial:
    """Genus generating function over all partial duals of ``g``.

    ``method="fast"`` computes each genus from two spanning-subgraph
    boundary counts; ``method="explicit"`` builds every partial dual.
    The two must agree everywhere (enforced by the test suite).
    """
    if method not in ("fast", "explicit"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(g, ChordDiagram):
        if method == "fast":
            return _gamma_of_word(g.canonical().word)
        g = g.to_map()
    return _genus_distribution(g, explicit=(method == "explicit"))


@dataclass(frozen=True)
class GenusPolynomialResult:
    """A computed genus polynomial together with its diagram."""

    diagram: ChordDiagram
    polynomial: IntPolynomial
    subset_count: int

    def to_json(self) -> dict:
        return {
            "diagram": list(self.diagram.word),
            "polynomial": self.polynomial.to_json(),
            "subset_count": self.subset_count,
        }


def pd_genus_report(diagram: ChordDiagram, method: str = "fast") -> GenusPolynomialResult:
    canon = diagram.canonical()
    poly = pd_genus_polynomial(canon, method=method)
    return GenusPolynomialResult(canon, poly, 1 << canon.order)


# -- four-term quadruples --------------------------------------------------

# A quadruple (d1, d2, d3, d4) of class ids satisfies the four-term
# relation when f(d1) - f(d2) + f(d3) - f(d4) = 0.
SIGNS = (1, -1, 1, -1)


def _quadruples_from_word(
    word: tuple[int, ...], table: dict[tuple[int, ...], int]
) -> list[tuple[int, int, int, int]]:
    """All quadruples arising from one diagram's (moving, fixed, endpoint) choices.

    The four diagrams agree outside one endpoint of the moving chord,
    which sits in the four slots adjacent to the two endpoints of the
    fixed chord: just before the first, just after the first, just before
    the second, just after the second.  Swapping the roles of the fixed
    chord's endpoints permutes the quadruple as (3, 4, 1, 2), which leaves
    the alternating sum unchanged; the lesser variant is kept.

    The circle is read from the partner of the free endpoint, which then
    carries label 1 after relabelling by first occurrence; placing the
    free endpoint in any later slot leaves the relabelled word normalized,
    so every placement is one table lookup.
    """
    n2 = len(word)
    partner = [0] * n2
    first: dict[int, int] = {}
    for i, label in enumerate(word):
        if label in first:
            partner[i], partner[first[label]] = first[label], i
        else:
            first[label] = i
    out = []
    for q in range(n2):
        p = partner[q]
        circle = word[p:] + word[:p]
        free = (q - p) % n2
        rest = normalize_labels(circle[:free] + circle[free + 1 :])
        placed = [table[rest[:slot] + (1,) + rest[slot:]] for slot in range(n2)]
        ends: dict[int, list[int]] = {}
        for i in range(1, n2 - 1):
            ends.setdefault(rest[i], []).append(i)
        for r, s in ends.values():
            four = (placed[r], placed[r + 1], placed[s], placed[s + 1])
            out.append(min(four, four[2:] + four[:2]))
    return out


@lru_cache(maxsize=None)
def generate_4T_quadruples(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every four-term quadruple of order n, as sorted 4-tuples of class ids.

    For each diagram, each ordered pair (moving chord, fixed chord) and
    each choice of the moving chord's free endpoint yields one quadruple;
    duplicates are removed by class id.  Id i is the diagram
    ``enumerate_diagrams(n)[i]``.
    """
    if n < 2:
        raise ValueError("four-term quadruples need order >= 2")
    diagrams = enumerate_diagrams(n)  # builds the class table too
    table = class_table(n)
    keys: set[tuple[int, int, int, int]] = set()
    for diagram in diagrams:
        keys.update(_quadruples_from_word(diagram.word, table))
    return tuple(sorted(keys))


def _evaluate_classes(
    n: int, lo: int, hi: int, invariant: Callable[[ChordDiagram], IntPolynomial]
) -> list[IntPolynomial]:
    """The invariant on the diagrams with class ids lo..hi-1 of order n."""
    return [invariant(d) for d in enumerate_diagrams(n)[lo:hi]]


def check_4T(
    n: int,
    invariant: Callable[[ChordDiagram], IntPolynomial] | None = None,
    threads: int = 1,
) -> dict:
    """Evaluate the alternating sum on every quadruple of order n.

    The invariant (by default the genus polynomial) is evaluated once per
    diagram class, then summed over the quadruples' class ids.  Returns a
    report with the quadruple count and all nonzero residuals; for the
    genus polynomial the expected violation count is zero.  With
    ``threads > 1`` the classes are split into contiguous id ranges, each
    evaluated in a worker process, at most ``min(threads, cpu count,
    classes)`` of them; the invariant must then be picklable.  The report
    does not depend on the split.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    quadruples = generate_4T_quadruples(n)
    diagrams = enumerate_diagrams(n)
    evaluate = pd_genus_polynomial if invariant is None else invariant
    workers = min(threads, os.cpu_count() or 1, len(diagrams))
    bounds = [len(diagrams) * k // workers for k in range(workers + 1)]
    shards = [(n, lo, hi, evaluate) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        parts = [_evaluate_classes(*shards[0])]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            parts = list(pool.map(_evaluate_classes, *zip(*shards)))
    values = [value for part in parts for value in part]

    violations = []
    for quad in quadruples:
        a, b, c, d = (values[i] for i in quad)
        residual = a - b + c - d
        if residual:
            violations.append(
                {
                    "quadruple": [str(diagrams[i]) for i in quad],
                    "residual": residual.to_json(),
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
    """Distinct four-term relation vectors of order n, as sparse rows ``{class id: coefficient}``.

    Below order 2 there are no relations, so the list is empty.
    """
    if n < 2:
        return []
    vectors: set[tuple[tuple[int, int], ...]] = set()
    for quad in generate_4T_quadruples(n):
        row: dict[int, int] = {}
        for sign, i in zip(SIGNS, quad):
            row[i] = row.get(i, 0) + sign
        key = tuple(sorted((i, c) for i, c in row.items() if c))
        if key:
            vectors.add(key)
    return [dict(key) for key in sorted(vectors)]


def dim_quotient(n: int) -> int:
    """Dimension of the span of order-n diagrams modulo all four-term relations."""
    size = len(enumerate_diagrams(n))
    return size - RationalMatrix(quadruple_vectors(n), size).rank()


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
    size = len(enumerate_diagrams(n))
    index = class_table(n)
    weight_systems = RationalMatrix(quadruple_vectors(n), size).nullspace()
    ids = [index[normalize_labels(b.word)] for b in basis]
    values = RationalMatrix(
        ({i: w[b] for i, b in enumerate(ids) if b in w} for w in weight_systems),
        len(basis),
    )
    if values.rank() != len(basis):
        raise NotABasisError("basis is dependent modulo the four-term relations")
    target = index[normalize_labels(diagram.word)]
    solution = values.solve([w.get(target, 0) for w in weight_systems])
    if solution is None:
        raise NoSolutionError("target is outside the span of basis and relations")
    return solution


# -- structural property suites ---------------------------------------------


def check_multiplicativity(n1: int, n2: int) -> dict:
    """Verify gamma(product) = gamma(D1) * gamma(D2) over all pairs and cuts."""
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
                    actual = pd_genus_polynomial(joined)
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


def _graph_class_key(matrix: list[list[int]]) -> tuple[int, ...]:
    """Canonical form of a small graph: lex-least adjacency bits over all relabellings."""
    n = len(matrix)
    best = None
    for perm in itertools.permutations(range(n)):
        bits = tuple(
            matrix[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n)
        )
        if best is None or bits < best:
            best = bits
    return best if best is not None else ()


def check_intersection_graph_invariance(n: int) -> dict:
    """Group order-n diagrams by interlace-graph isomorphism; gamma must be constant per class."""
    classes: dict[tuple[int, ...], list[ChordDiagram]] = {}
    for d in enumerate_diagrams(n):
        classes.setdefault(_graph_class_key(d.interlace_graph()), []).append(d)
    violations = []
    summaries = []
    for key in sorted(classes):
        members = classes[key]
        polys = [pd_genus_polynomial(d) for d in members]
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
