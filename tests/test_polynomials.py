import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest

from pdgenus.polynomials import (
    IntPolynomial,
    RationalMatrix,
    _identify,
    _integral,
    _reduced_echelon,
)
from pdgenus.weight_system import quadruple_vectors
from test_diagrams import fresh_peak


def P(*coeffs):
    return IntPolynomial(coeffs)


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()
        assert not P()
        assert P().degree == -1

    def test_square_of_two_plus_two_z(self):
        # (2+2z)^2 = 4 + 8z + 4z^2
        assert P(2, 2) * P(2, 2) == P(4, 8, 4)

    def test_additive_identity(self):
        p = P(3, 0, 7)
        assert p + IntPolynomial() == p
        assert p - p == IntPolynomial()

    @pytest.mark.parametrize("other", [1.5, "z", (1, 2)])
    def test_arithmetic_with_a_non_polynomial_raises_type_error(self, other):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(P(1, 2), other)

    def test_coeff_sum_counts_subsets(self):
        assert P(2, 10, 4).coeff_sum() == 16

    def test_scaling_and_evaluate(self):
        assert 3 * P(1, 1) == P(3, 3)
        # the value at z = 1 scales with the polynomial
        assert (3 * P(1, 2, 1)).coeff_sum() == 12

    def test_ring_axioms_randomized(self):
        rng = random.Random(11)
        polys = [
            IntPolynomial(rng.randrange(-9, 10) for _ in range(rng.randrange(0, 6)))
            for _ in range(40)
        ]
        for _ in range(200):
            a, b, c = rng.sample(polys, 3)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_hash_and_repr_ignore_trailing_zeros(self):
        assert hash(IntPolynomial([1, 2, 0])) == hash(IntPolynomial([1, 2]))
        assert repr(IntPolynomial([1, 2, 0])) == "IntPolynomial([1, 2])"
        assert repr(IntPolynomial()) == "IntPolynomial([])"

    def test_text_form(self):
        assert str(P(2, 10, 4)) == "2 + 10z + 4z^2"
        assert str(P(0, 8, 8)) == "8z + 8z^2"
        assert str(P(0, 1)) == "z"
        assert str(P(1, 0, -1)) == "1 - z^2"
        assert str(IntPolynomial()) == "0"

    @pytest.mark.parametrize("coeffs", [[0.5, 2.9], [Fraction(7, 2)], [Fraction(4, 1)], [1, "3"]])
    def test_inexact_coefficients_rejected(self, coeffs):
        # int() would read these as 2z, 3, 4 and 1 + 3z
        with pytest.raises(TypeError):
            IntPolynomial(coeffs)


def dense(rows):
    """A RationalMatrix from dense rows of equal length."""
    rows = [list(row) for row in rows]
    return RationalMatrix([dict(enumerate(row)) for row in rows], len(rows[0]))


class TestRationalMatrix:
    def test_identity_rank(self):
        eye = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert eye.rank() == 3

    def test_zero_rank(self):
        assert dense([[0, 0], [0, 0]]).rank() == 0
        assert RationalMatrix([], num_cols=4).rank() == 0

    def test_rank_with_fractions(self):
        m = dense([[Fraction(1, 2), 1], [1, 2], [0, 1]])
        assert m.rank() == 2

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(5)
        for _ in range(30):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            entries = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
            assert dense(entries).rank() == dense(zip(*entries)).rank()

    def test_solve_in_span(self):
        m = dense(zip(*[[1, 0, 1], [0, 1, 1]]))
        x = m.solve([2, 3, 5])
        assert x == [Fraction(2), Fraction(3)]
        assert m.solve([1, 0, 0]) is None

    @pytest.mark.parametrize("target", [[2, 3], [2, 3, 5, 0]])
    def test_solve_target_of_wrong_length_rejected(self, target):
        with pytest.raises(ValueError, match="row count"):
            dense(zip(*[[1, 0, 1], [0, 1, 1]])).solve(target)

    def test_solve_column_of_matrix(self):
        m = dense(zip(*[[1, 2], [3, 4]]))
        x = m.solve([3, 4])
        assert x == [Fraction(0), Fraction(1)]

    def test_solve_residual_exactly_zero(self):
        entries = [[2, 3], [5, 7]]
        x = dense(entries).solve([1, 1])
        for row, t in zip(entries, [1, 1]):
            assert sum(r * xi for r, xi in zip(row, x)) == t

    def test_float_entries_rejected(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        for value in (0.5, 0.1, 2.0):
            with pytest.raises(TypeError):
                RationalMatrix([{0: value}], num_cols=1)
            with pytest.raises(TypeError):
                dense([[1]]).solve([value])
        exact = RationalMatrix([{0: Fraction(1, 10), 1: "1/10", 2: 3}], num_cols=3)
        assert exact.rows == ({0: Fraction(1, 10), 1: Fraction(1, 10), 2: Fraction(3)},)

    def test_out_of_range_column_rejected(self):
        for column in (-1, 2):
            with pytest.raises(ValueError):
                RationalMatrix([{0: 1}, {column: 1}], num_cols=2)

    def test_column_that_is_not_an_int_rejected(self):
        # {1.5: 1} passed a min/max range check: rank 1 and two nullspace vectors on 2 columns;
        # {1.0: 1} passed the range set, as 1.0 == 1, and a float was stored in the matrix
        for column in (1.5, 1.0, "1", None, Fraction(1)):
            with pytest.raises(TypeError):
                RationalMatrix([{0: 1}, {column: 1}], num_cols=2)

    def test_bool_column_is_stored_as_an_int(self):
        m = RationalMatrix([{True: 1, 0: -1}], num_cols=2)
        assert m.rows == ({1: 1, 0: -1},)
        assert [type(j) for j in m.rows[0]] == [int, int]

    @pytest.mark.parametrize(
        "num_cols, error",
        [(2.0, TypeError), ("2", TypeError), (Fraction(2), TypeError), (-3, ValueError)],
    )
    def test_num_cols_that_is_not_a_count_rejected(self, num_cols, error):
        # num_cols=2.0 was kept, and nullspace() then failed on range(2.0)
        with pytest.raises(error):
            RationalMatrix([], num_cols)


class TestIntegerEliminator:
    def test_rank_builds_no_fraction(self, monkeypatch):
        m = RationalMatrix(quadruple_vectors(5), num_cols=105)

        def refuse(cls, *args, **kwargs):
            raise AssertionError("the eliminator built a Fraction")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        assert m.rank() == 95

    def test_pivot_rows_are_primitive_integer_rows(self):
        pivots = _reduced_echelon(quadruple_vectors(5))
        assert len(pivots) == 95
        for col, row in pivots.items():
            assert all(type(v) is int for v in row.values())
            assert math.gcd(*row.values()) == 1
            assert col == min(row) and row[col] > 0
            assert not (row.keys() - {col}) & pivots.keys()


def _oracle_rank(rows):
    """Rank by dense Fraction elimination, independent of RationalMatrix."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1 :]:
            f = r[col] / pivot[col]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def test_eliminator_against_rank_oracle():
    rng = random.Random(2024)
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    outcomes = {True: 0, False: 0}
    for _ in range(1200):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            c = [rng.choice(entries) for _ in range(cols)]
            b = [sum(x * y for x, y in zip(row, c)) for row in a]
        else:
            b = [rng.choice(entries) for _ in range(rows)]
        m = dense(a)
        rank = _oracle_rank(a)
        assert m.rank() == rank == dense(zip(*a)).rank()
        # the lex-first independent columns are the pivots, the rest are free
        prefix_ranks = [_oracle_rank([row[:j] for row in a]) for j in range(cols + 1)]
        free = [j for j in range(cols) if prefix_ranks[j + 1] == prefix_ranks[j]]

        kernel = m.nullspace()
        assert len(kernel) == cols - rank == len(free)
        for f, w in zip(free, kernel):
            assert [sum(r * w.get(j, 0) for j, r in enumerate(row)) for row in a] == [0] * rows
            assert [w.get(g, 0) for g in free] == [int(g == f) for g in free]

        x = m.solve(b)
        in_span = _oracle_rank([row + [t] for row, t in zip(a, b)]) == rank
        assert (x is not None) == in_span
        outcomes[in_span] += 1
        if x is not None:
            assert [sum(r * xi for r, xi in zip(row, x)) for row in a] == b
            for j in free:
                assert x[j] == 0

        order = rng.sample(range(rows), rows)
        permuted = dense([a[i] for i in order])
        assert permuted.rank() == rank
        assert permuted.solve([b[i] for i in order]) == x
    assert min(outcomes.values()) > 200


def _oracle_rref(rows, cols):
    """The RREF of sparse rows by dense Fraction elimination, as ``{pivot column: row}``."""
    m = [[Fraction(row.get(j, 0)) for j in range(cols)] for row in rows]
    pivots = []
    for col in range(cols):
        r = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if r is None:
            continue
        top = len(pivots)
        m[top], m[r] = m[r], m[top]
        m[top] = [x / m[top][col] for x in m[top]]
        for i, row in enumerate(m):
            if i != top and row[col]:
                m[i] = [a - row[col] * b for a, b in zip(row, m[top])]
        pivots.append(col)
    return {col: {j: x for j, x in enumerate(m[i]) if x} for i, col in enumerate(pivots)}


def _planted_rows(rng, cols):
    """Sparse rows with identifications ``{a: x, b: -x}`` planted among random rows.

    The pairs form chains and cycles over a random partition of some
    columns; some pairs are Fractions; some identifications show only once
    others are merged (``{a: x, b: -x, c: y, d: -y}`` with c and d planted
    equal); and the rest are random rows of one to four entries.
    """
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    columns = rng.sample(range(cols), rng.randrange(2, cols + 1))
    groups = []
    while len(columns) >= 2:
        size = rng.randrange(2, len(columns) + 1)
        groups.append(columns[:size])
        columns = columns[size:]
    rows, equal = [], []
    for group in groups:
        links = list(zip(group, group[1:]))
        if len(group) > 2 and rng.random() < 0.5:
            links.append((group[-1], group[0]))  # a cycle
        for a, b in links:
            x = rng.choice(values)
            equal.append((a, b))
            if rng.random() < 0.3:
                c, d = rng.choice(equal)
                if len({a, b, c, d}) == 4:
                    y = rng.choice(values)
                    rows.append({a: x, b: -x, c: y, d: -y})  # a pair once c and d merge
                    continue
            rows.append({a: x, b: -x})
    for _ in range(rng.randrange(0, cols)):
        row = {j: rng.choice(values) for j in rng.sample(range(cols), rng.randrange(1, min(cols, 4) + 1))}
        rows.append(row)
    rng.shuffle(rows)
    return rows


class TestIdentifications:
    """The merge of two-entry rows ``{a: x, b: -x}`` before the elimination."""

    @staticmethod
    def _check(rows, cols):
        pivots = _reduced_echelon(rows)
        expected = _oracle_rref(rows, cols)
        assert pivots.keys() == expected.keys()
        for col, row in pivots.items():
            assert all(type(v) is int for v in row.values())
            assert math.gcd(*row.values()) == 1 and row[col] > 0
            assert {j: Fraction(v, row[col]) for j, v in row.items()} == expected[col]
        return pivots

    def test_against_dense_rref_oracle(self):
        rng = random.Random(23)
        pairs_left = 0  # cases whose rewritten rows hold a pair for the elimination
        for _ in range(400):
            cols = rng.randrange(2, 12)
            rows = _planted_rows(rng, cols)
            self._check(rows, cols)
            out = _identify([_integral(row) for row in rows])[0]
            pairs_left += any(len(row) == 2 and sum(row.values()) == 0 for row in out)
        assert pairs_left > 40

    def test_chain_cycle_and_fraction_pair(self):
        chain = [{0: 1, 1: -1}, {1: Fraction(1, 2), 2: Fraction(-1, 2)}, {2: -3, 3: 3}]
        assert self._check(chain, 5) == {0: {0: 1, 3: -1}, 1: {1: 1, 3: -1}, 2: {2: 1, 3: -1}}
        cycle = chain + [{3: 2, 0: -2}, {0: 1, 4: 1}]
        assert self._check(cycle, 5) == {
            0: {0: 1, 4: 1}, 1: {1: 1, 4: 1}, 2: {2: 1, 4: 1}, 3: {3: 1, 4: 1},
        }

    def test_pair_that_appears_only_after_merging(self):
        rows = [{2: 1, 3: -1}, {0: 1, 1: -1, 2: 5, 3: -5}, {1: 1, 4: 1, 5: 1}]
        assert self._check(rows, 6) == {
            0: {0: 1, 4: 1, 5: 1}, 1: {1: 1, 4: 1, 5: 1}, 2: {2: 1, 3: -1},
        }

    def test_augmented_target_column(self):
        rng = random.Random(7)
        solved = {True: 0, False: 0}
        for _ in range(300):
            cols = rng.randrange(2, 9)
            rows = _planted_rows(rng, cols)
            # a one-entry row {a: x} with target -x is the pair {a: x, cols: -x}
            target = [-next(iter(row.values())) if len(row) == 1 else rng.choice([0, 0, 1, -2]) for row in rows]
            augmented = [{**row, cols: t} if t else row for row, t in zip(rows, target)]
            self._check(augmented, cols + 1)
            x = RationalMatrix(rows, cols).solve(target)
            solved[x is not None] += 1
            if x is not None:
                assert [sum(v * x[j] for j, v in row.items()) for row in rows] == target
        assert min(solved.values()) > 30

    @pytest.mark.parametrize(
        "n, digest",
        [
            (2, "4f53cda18c2baa0c"),
            (3, "bb5700270601b23e"),
            (4, "28577b8a9e4906fd"),
            (5, "b002a3ee0f76743a"),
            (6, "ef1fa23aedd2e8b2"),
            pytest.param(7, "4d82541e58914a51", marks=pytest.mark.slow),
        ],
    )
    def test_pinned_pivot_rows_of_the_four_term_relations(self, n, digest):
        # each row's entries sorted by column: the order of a row's keys is not part of its value
        pivots = _reduced_echelon(quadruple_vectors(n))
        rows = [(col, sorted(row.items())) for col, row in sorted(pivots.items())]
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest

    def test_rows_without_a_merged_column_are_the_callers_objects(self):
        rows = [{0: 1, 1: -1}, {2: 1, 3: 2}, {1: 1, 2: 1}, {0: 2, 3: 1}]
        out, merged = _identify(rows)
        assert merged == {0: 1}
        assert out[0] is rows[1] and out[1] is rows[2] and out[2:] == [{1: 2, 3: 1}]
        rows = [_integral(row) for row in quadruple_vectors(6)]
        out, merged = _identify(rows)
        given = {id(row) for row in rows}
        untouched = [id(row) for row in rows if merged.keys().isdisjoint(row)]
        assert len(untouched) == 922
        assert [id(row) for row in out if id(row) in given] == untouched

    def test_pair_free_input_comes_back_as_it_is(self):
        rows = [{0: 1, 1: 1}, {1: 2, 2: -1}, {0: 1, 1: -2}, {2: 3}]
        out, merged = _identify(rows)
        assert out is rows and merged == {}

    def test_identify_at_order_six_peaks_under_half_a_mib(self):
        peak = fresh_peak(
            "from pdgenus.polynomials import _identify, _integral\n"
            "from pdgenus.weight_system import quadruple_vectors\n"
            "rows = [_integral(row) for row in quadruple_vectors(6)]",
            "_identify(rows)",
        )
        # about 0.3 MB; a key for each of the 4 610 rows took 1.4 MB
        assert peak < 0.5 * 2**20
