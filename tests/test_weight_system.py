import concurrent.futures
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pdgenus.diagrams import ChordDiagram, _matchings, caravan, enumerate_diagrams, product
from pdgenus.polynomials import IntPolynomial, RationalMatrix
from pdgenus.weight_system import (
    NoSolutionError,
    NotABasisError,
    check_4T,
    check_intersection_graph_invariance,
    check_multiplicativity,
    dim_quotient,
    express_modulo_4T,
    generate_4T_quadruples,
    pd_genus_polynomial,
    pd_genus_report,
    quadruple_vectors,
)

P = ChordDiagram.parse


class TestGenusPolynomial:
    def test_order_one_and_two(self):
        assert pd_genus_polynomial(P("1 1")) == IntPolynomial([2])
        assert pd_genus_polynomial(P("1 1 2 2")) == IntPolynomial([4])
        assert pd_genus_polynomial(P("1 2 1 2")) == IntPolynomial([2, 2])

    def test_order_three_published_list(self):
        expected = {
            "1 1 2 2 3 3": [8],
            "1 1 2 3 3 2": [8],
            "1 1 2 3 2 3": [4, 4],
            "1 2 1 3 2 3": [2, 6],
            "1 2 3 1 2 3": [0, 8],
        }
        for word, coeffs in expected.items():
            assert pd_genus_polynomial(P(word)) == IntPolynomial(coeffs), word

    def test_map_input_matches_diagram_input(self):
        d = P("1 2 1 3 2 3")
        assert pd_genus_polynomial(d.to_map()) == pd_genus_polynomial(d)

    def test_fast_and_explicit_methods_agree(self):
        for n in range(1, 5):
            for d in enumerate_diagrams(n):
                assert pd_genus_polynomial(d, method="fast") == pd_genus_polynomial(
                    d, method="explicit"
                )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            pd_genus_polynomial(P("1 1"), method="approximate")

    def test_coefficient_sum_is_subset_count(self):
        for n in range(1, 5):
            for d in enumerate_diagrams(n):
                assert pd_genus_polynomial(d).coeff_sum() == 1 << n

    def test_degree_bounded_by_half_order(self):
        for n in range(1, 5):
            for d in enumerate_diagrams(n):
                poly = pd_genus_polynomial(d)
                assert poly.degree <= n // 2
                assert all(c >= 0 for c in poly.coeffs)

    def test_invariant_under_partial_duality_exhaustive(self):
        for n in range(1, 5):
            for d in enumerate_diagrams(n):
                m = d.to_map()
                gamma = pd_genus_polynomial(m)
                for mask in range(1 << m.num_edges):
                    assert pd_genus_polynomial(m.partial_dual(mask)) == gamma

    def test_randomized_order_six_properties(self):
        rng = random.Random(9)
        diagrams = rng.sample(enumerate_diagrams(6), 12)
        for d in diagrams:
            poly = pd_genus_polynomial(d)
            assert poly.coeff_sum() == 64
            assert poly.degree <= 3
            m = d.to_map()
            mask = rng.randrange(1 << 6)
            assert pd_genus_polynomial(m.partial_dual(mask)) == poly

    def test_caravan_closed_form(self):
        pair = IntPolynomial([2, 2])
        for k in range(3):
            for g in range(3):
                if k + g == 0:
                    continue
                expected = IntPolynomial([1 << k])
                for _ in range(g):
                    expected = expected * pair
                assert pd_genus_polynomial(caravan(k, g)) == expected

    def test_report_wrapper(self):
        report = pd_genus_report(P("2 1 2 1"))
        assert report.diagram.word == (1, 2, 1, 2)
        assert report.subset_count == 4
        assert report.to_json()["polynomial"] == {"coeffs": [2, 2]}


def _oracle_quadruple_keys(n):
    """Brute-force event enumeration over *all* matchings of 2n points.

    Builds each placement by pair arithmetic on endpoint positions
    instead of word splicing, then canonicalizes; used to cross-check
    the generator's deduplicated quadruple set.
    """
    keys = set()
    for matching in _matchings(tuple(range(2 * n))):
        for ai, a_pair in enumerate(matching):
            for bi, b_pair in enumerate(matching):
                if ai == bi:
                    continue
                for q in a_pair:
                    p = a_pair[0] if a_pair[1] == q else a_pair[1]
                    drop = lambda x: x - 1 if x > q else x
                    rest = [
                        (drop(u), drop(v))
                        for j, (u, v) in enumerate(matching)
                        if j != ai
                    ]
                    r, s = sorted(drop(x) for x in b_pair)
                    four = []
                    for slot in (r, r + 1, s, s + 1):
                        lift = lambda x: x + 1 if x >= slot else x
                        pairs = [(lift(u), lift(v)) for u, v in rest]
                        pairs.append((lift(drop(p)), slot))
                        word = [0] * (2 * n)
                        for label, (u, v) in enumerate(sorted(pairs, key=min), start=1):
                            word[u] = word[v] = label
                        four.append(ChordDiagram(word).canonical().word)
                    four = tuple(four)
                    keys.add(min(four, four[2:] + four[:2]))
    return keys


def _dense_rank(rows):
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
            if r[col]:
                f = r[col] / pivot[col]
                r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


class TestQuadruples:
    def test_classical_relations_present_at_order_three(self):
        ids = {d.word: i for i, d in enumerate(enumerate_diagrams(3))}
        vectors = quadruple_vectors(3)
        coincide = {ids[(1, 1, 2, 2, 3, 3)]: 1, ids[(1, 1, 2, 3, 3, 2)]: -1}
        assert coincide in vectors or {i: -c for i, c in coincide.items()} in vectors
        triple = {ids[(1, 2, 3, 1, 2, 3)]: 1, ids[(1, 2, 1, 3, 2, 3)]: -2, ids[(1, 1, 2, 3, 2, 3)]: 1}
        assert triple in vectors or {i: -c for i, c in triple.items()} in vectors

    def test_rank_of_order_three_relations(self):
        matrix = RationalMatrix(quadruple_vectors(3), num_cols=5)
        assert matrix.rank() == 2

    def test_degenerate_quadruples_cancel(self):
        diagrams = enumerate_diagrams(2)
        for quad in generate_4T_quadruples(2):
            d1, d2, d3, d4 = (diagrams[i] for i in quad)
            if d1 == d2 and d3 == d4:
                g1, g2, g3, g4 = (pd_genus_polynomial(d) for d in (d1, d2, d3, d4))
                assert g1 - g2 + g3 - g4 == IntPolynomial.zero()

    def test_matches_independent_event_enumeration(self):
        for n, count in ((3, 6), (4, 45)):
            words = [d.word for d in enumerate_diagrams(n)]
            quadruples = generate_4T_quadruples(n)
            assert list(quadruples) == sorted(set(quadruples))
            generated = {tuple(words[i] for i in quad) for quad in quadruples}
            assert generated == _oracle_quadruple_keys(n)
            assert len(generated) == len(quadruples) == count

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_4T_quadruples(1)


class TestCheck4T:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_genus_polynomial_has_no_violations(self, n):
        report = check_4T(n)
        assert report["violations"] == 0
        assert report["violations_list"] == []

    def test_parallel_run_matches_sequential(self):
        assert check_4T(4, threads=2) == check_4T(4)

    @pytest.mark.parametrize(
        "n, threads, cpus, workers",
        [(2, 1000, 64, 2), (4, 1000, 4, 4), (4, 3, 64, 3), (4, 8, 1, None)],
    )
    def test_workers_capped_by_threads_cpus_and_classes(
        self, monkeypatch, n, threads, cpus, workers
    ):
        started = []

        class InlinePool:  # records the pool size and runs the shards in this process
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert check_4T(n, threads=threads) == check_4T(n)
        assert started == ([] if workers is None else [workers])

    def test_import_loads_no_process_pool(self):
        code = "import sys, pdgenus; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "False"

    def test_threads_below_one_rejected_before_any_work(self):
        calls = []
        with pytest.raises(ValueError, match="threads"):
            check_4T(4, invariant=calls.append, threads=0)
        assert calls == []

    def test_invariant_evaluated_once_per_class(self):
        seen = []

        def genus_polynomial(d):
            seen.append(d.word)
            return pd_genus_polynomial(d)

        report = check_4T(4, invariant=genus_polynomial)
        assert report["violations"] == 0
        assert seen == [d.word for d in enumerate_diagrams(4)]

    def test_broken_invariant_is_reported(self):
        # indicator of an isolated chord: not a weight system
        def has_isolated_chord(d):
            return IntPolynomial([1 if 0 in d.interlace_sequence().counts else 0])

        report = check_4T(3, invariant=has_isolated_chord)
        assert report["violations"] > 0
        first = report["violations_list"][0]
        assert set(first) == {"quadruple", "residual"}
        # the witness names the four diagrams by canonical word, in quadruple order
        assert report["violations"] == 2
        assert first == {
            "quadruple": ["1 1 2 3 2 3", "1 2 1 3 2 3", "1 2 3 1 2 3", "1 2 1 3 2 3"],
            "residual": {"coeffs": [1]},
        }

    def test_bare_genus_passes_by_slide_pairing(self):
        # the quadruple partners differ by single edge slides, so genus
        # itself cancels in the alternating sum; this is a consequence of
        # slide invariance, not a defect of the harness
        report = check_4T(4, invariant=lambda d: IntPolynomial([d.genus()]))
        assert report["violations"] == 0


class TestQuotientDimensions:
    def test_published_dimensions(self):
        assert [dim_quotient(n) for n in (0, 1, 2, 3, 4)] == [1, 1, 2, 3, 6]

    def test_order_five_recorded_and_shuffle_stable(self):
        vectors = quadruple_vectors(5)
        rank = RationalMatrix(vectors, num_cols=105).rank()
        rng = random.Random(17)
        order = list(range(105))
        rng.shuffle(order)
        shuffled = RationalMatrix(
            [{order[j]: c for j, c in row.items()} for row in vectors], num_cols=105
        ).rank()
        assert rank == shuffled
        assert dim_quotient(5) == 105 - rank == 10

    def test_order_six_is_bar_natans_nineteen(self):
        assert dim_quotient(6) == 19

    @pytest.mark.slow
    def test_order_seven_is_bar_natans_thirtythree(self):
        assert dim_quotient(7) == 33


class TestExpressModulo4T:
    def _basis(self):
        return [
            P("1 2 3 1 4 2 3 4"),   # (2,2,3,3)
            P("1 2 1 3 2 4 3 4"),   # (1,1,2,2)
            P("1 2 1 2 3 4 3 4"),   # (1,1)v(1,1)
            P("1 1 2 3 4 3 2 4"),   # (0)v(1,1,2)
            P("1 1 2 3 4 4 2 3"),   # (0)v(0)v(1,1)
            P("1 1 2 3 4 4 3 2"),   # (0)^4
        ]

    def test_all_disjoint_equals_last_basis_element(self):
        coeffs = express_modulo_4T(P("1 1 2 2 3 3 4 4"), self._basis())
        assert coeffs == [0, 0, 0, 0, 0, 1]

    def test_twice_second_minus_third(self):
        coeffs = express_modulo_4T(P("1 2 1 3 4 2 3 4"), self._basis())
        assert coeffs == [0, 2, -1, 0, 0, 0]
        # any weight system must then satisfy the same linear relation
        gammas = [pd_genus_polynomial(b) for b in self._basis()]
        combo = 2 * gammas[1] - gammas[2]
        assert combo == pd_genus_polynomial(P("1 2 1 3 4 2 3 4"))
        assert combo == IntPolynomial([0, 12, 4])

    def test_basis_elements_are_unit_vectors(self):
        basis = self._basis()
        for i, b in enumerate(basis):
            coeffs = express_modulo_4T(b, basis)
            assert coeffs == [Fraction(j == i) for j in range(len(basis))]

    def test_dependent_basis_rejected(self):
        dependent = [P("1 1 2 2 3 4 3 4"), P("1 1 2 3 4 4 2 3")]  # equal mod 4T
        with pytest.raises(NotABasisError):
            express_modulo_4T(P("1 1 2 2 3 3 4 4"), dependent)

    def test_wrong_order_rejected(self):
        with pytest.raises(NotABasisError):
            express_modulo_4T(P("1 1 2 2"), [P("1 1")])

    def test_unreachable_target_rejected(self):
        with pytest.raises(NoSolutionError):
            express_modulo_4T(P("1 2 3 1 2 3"), [P("1 1 2 3 2 3")])

    def test_orders_without_relations(self):
        for word in ([], [1, 1]):
            assert express_modulo_4T(ChordDiagram(word), [ChordDiagram(word)]) == [Fraction(1)]

    @pytest.mark.parametrize("n", [3, 4])
    def test_against_rank_oracle(self, n):
        words = [d.word for d in enumerate_diagrams(n)]
        size = len(words)
        ids = {w: i for i, w in enumerate(words)}

        def unit(i):
            return [int(j == i) for j in range(size)]

        relations = []  # an independent subset spanning the same space, to keep the oracle fast
        for key in sorted(_oracle_quadruple_keys(n)):
            row = [0] * size
            for sign, word in zip((1, -1, 1, -1), key):
                row[ids[word]] += sign
            if _dense_rank(relations + [row]) > len(relations):
                relations.append(row)
        rank_r = len(relations)

        dim = size - rank_r
        rng = random.Random(n)
        outcomes = {"expressed": 0, NotABasisError: 0, NoSolutionError: 0}
        for _ in range(120):
            chosen = rng.sample(range(size), rng.randrange(max(dim - 2, 0), dim + 2))
            target = rng.randrange(size)
            # rotated words name the same classes
            basis = []
            for i in chosen:
                r = rng.randrange(2 * n)
                basis.append(ChordDiagram(words[i][r:] + words[i][:r]))
            with_basis = relations + [unit(i) for i in chosen]
            rank_rb = _dense_rank(with_basis)
            try:
                coeffs = express_modulo_4T(ChordDiagram(words[target]), basis)
            except (NotABasisError, NoSolutionError) as exc:
                outcome = type(exc)
            else:
                outcome = "expressed"
                assert len(coeffs) == len(chosen)
                residual = [-int(j == target) for j in range(size)]
                for c, i in zip(coeffs, chosen):
                    residual[i] += c
                assert _dense_rank(relations + [residual]) == rank_r
            if rank_rb != rank_r + len(chosen):
                assert outcome is NotABasisError
            elif _dense_rank(with_basis + [unit(target)]) > rank_rb:
                assert outcome is NoSolutionError
            else:
                assert outcome == "expressed"
            outcomes[outcome] += 1
        assert min(outcomes.values()) >= 10, outcomes


class TestMultiplicativity:
    def test_small_orders_have_no_violations(self):
        for n1, n2 in ((1, 1), (1, 2), (2, 2), (1, 3)):
            report = check_multiplicativity(n1, n2)
            assert report["violations"] == 0
            assert report["checked"] == (
                len(enumerate_diagrams(n1))
                * len(enumerate_diagrams(n2))
                * (2 * n1)
                * (2 * n2)
            )

    def test_product_of_interlaced_pairs(self):
        square = pd_genus_polynomial(P("1 2 1 2 3 4 3 4"))
        assert square == IntPolynomial([2, 2]) * IntPolynomial([2, 2])

    def test_single_chord_doubles_coefficients(self):
        joined = product(P("1 2 1 3 2 3"), P("1 1"))
        assert pd_genus_polynomial(joined) == 2 * IntPolynomial([2, 6])


class TestIntersectionGraphInvariance:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_violations(self, n):
        report = check_intersection_graph_invariance(n)
        assert report["violations"] == 0

    def test_order_four_coincidence_classes(self):
        report = check_intersection_graph_invariance(4)
        by_poly = {}
        for entry in report["class_list"]:
            key = tuple(entry["polynomial"]["coeffs"])
            by_poly.setdefault(key, []).append(entry["size"])
        assert 3 in by_poly[(16,)]          # three disjoint-chord diagrams
        assert 4 in by_poly[(8, 8)]         # the 4(2+2z) class
        assert 3 in by_poly[(4, 12)]        # the 2(2+6z) class
