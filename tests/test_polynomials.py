import random
from fractions import Fraction

import pytest

from pdgenus.polynomials import IntPolynomial, RationalMatrix


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
        assert p + IntPolynomial.zero() == p
        assert p - p == IntPolynomial.zero()

    def test_coeff_sum_counts_subsets(self):
        assert P(2, 10, 4).coeff_sum() == 16
        assert P(2, 10, 4).evaluate(1) == 16

    def test_scaling_and_evaluate(self):
        assert 3 * P(1, 1) == P(3, 3)
        assert P(1, 2, 1).evaluate(2) == 9
        assert P(1, 2).evaluate(Fraction(1, 2)) == 2

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

    def test_text_form(self):
        assert str(P(2, 10, 4)) == "2 + 10z + 4z^2"
        assert str(P(0, 8, 8)) == "8z + 8z^2"
        assert str(P(0, 1)) == "z"
        assert str(P(1, 0, -1)) == "1 - z^2"
        assert str(IntPolynomial.zero()) == "0"

    def test_json_round_trip(self):
        p = P(2, 0, 5)
        assert IntPolynomial.from_json(p.to_json()) == p

    def test_monomial(self):
        assert IntPolynomial.monomial(3) == P(0, 0, 0, 1)


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

    def test_solve_column_of_matrix(self):
        m = dense(zip(*[[1, 2], [3, 4]]))
        x = m.solve([3, 4])
        assert x == [Fraction(0), Fraction(1)]

    def test_solve_residual_exactly_zero(self):
        entries = [[2, 3], [5, 7]]
        x = dense(entries).solve([1, 1])
        for row, t in zip(entries, [1, 1]):
            assert sum(r * xi for r, xi in zip(row, x)) == t

    def test_out_of_range_column_rejected(self):
        for column in (-1, 2):
            with pytest.raises(ValueError):
                RationalMatrix([{0: 1}, {column: 1}], num_cols=2)


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
