import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pdgenus import diagrams, weight_system
from pdgenus.diagrams import (
    ChordDiagram,
    _class_id,
    _class_sources,
    caravan,
    enumerate_diagrams,
    partial_dual_diagram,
    product,
)
from pdgenus.maps import CombinatorialMap
from pdgenus.polynomials import IntPolynomial, RationalMatrix
from pdgenus.weight_system import (
    NoSolutionError,
    NotABasisError,
    _gamma_table,
    _genus_distribution,
    check_4T,
    check_intersection_graph_invariance,
    check_multiplicativity,
    dim_quotient,
    express_modulo_4T,
    generate_4T_quadruples,
    pd_genus_polynomial,
    quadruple_vectors,
)
from test_diagrams import _matchings, fresh_peak
from test_maps import random_map

P = ChordDiagram.parse


def _explicit_polynomial(m):
    """The genus polynomial by its definition: build every partial dual of the map."""
    counts = [0] * (m.num_edges // 2 + 2)
    for mask in range(1 << m.num_edges):
        counts[m.partial_dual(mask).genus()] += 1
    return IntPolynomial(counts)


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
        for n in range(0, 5):
            for d in enumerate_diagrams(n):
                assert pd_genus_polynomial(d) == _explicit_polynomial(d.to_map())

    def test_fast_and_explicit_methods_agree_on_multi_vertex_maps(self):
        # the fast path evaluates one genus per complementary pair of subsets
        rng = random.Random(5)
        maps = [CombinatorialMap((), ())]
        maps += [random_map(rng, e) for e in (1, 2, 3, 4, 5) for _ in range(8)]
        assert any(len(m.vertices()) > 1 for m in maps)
        assert any(len(m.connected_components()) > 1 for m in maps)
        for m in maps:
            assert pd_genus_polynomial(m) == _explicit_polynomial(m)

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


@pytest.fixture
def cold_gamma():
    """An empty polynomial cache during the test, and again after it."""
    weight_system._gamma.cache_clear()
    yield
    weight_system._gamma.cache_clear()


# walks of a cold cache for all classes of order n: the prime classes of orders 1..n
WALKS = [(4, 10), (5, 41), (6, 296)]


def _count_walks(monkeypatch):
    walks = []

    def counted(m):
        walks.append(m)
        return _genus_distribution(m)

    monkeypatch.setattr(weight_system, "_genus_distribution", counted)
    return walks


class TestFactorAndMirrorShortcuts:
    """Connected sums multiply their factors' polynomials; mirror images share theirs.

    ``pd_genus_polynomial`` takes only the first shortcut and walks every
    prime class; the γ table also copies a mirror's entry (``TestGammaTable``).
    """

    @pytest.mark.parametrize("n", range(7))
    def test_every_class_matches_its_own_walk(self, n):
        for d in enumerate_diagrams(n):
            assert pd_genus_polynomial(d) == _genus_distribution(d.to_map()), d

    @pytest.mark.slow
    def test_every_class_matches_its_own_walk_at_order_seven(self, cold_gamma):
        for d in enumerate_diagrams(7):
            assert pd_genus_polynomial(d) == _genus_distribution(d.to_map()), d

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reversed_word_has_the_same_polynomial(self, n):
        for d in enumerate_diagrams(n):
            mirror = ChordDiagram(d.word[::-1])
            walked = _genus_distribution(d.to_map())
            assert _genus_distribution(mirror.to_map()) == walked, d
            assert pd_genus_polynomial(mirror) == walked, d

    @pytest.mark.parametrize("n, walks", WALKS)
    def test_only_prime_diagrams_are_walked(self, n, walks, cold_gamma, monkeypatch):
        walked = _count_walks(monkeypatch)
        for d in enumerate_diagrams(n):
            pd_genus_polynomial(d)
        assert len(walked) == walks

    def test_walk_counts_are_running_totals_of_prime_classes(self):
        # at order 7 there are 2 788 more, so a cold loop over its classes walks 3 084
        primes = [
            sum(len(d.join_decompose()) == 1 for d in enumerate_diagrams(n)) for n in range(1, 7)
        ]
        assert primes == [1, 1, 2, 6, 31, 255]
        totals = dict(enumerate(itertools.accumulate(primes), start=1))
        assert [(n, totals[n]) for n, _ in WALKS] == WALKS

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda factors: [ChordDiagram(())] + factors[1:],  # one factor dropped
            lambda factors: factors + factors[:1],  # one factor counted twice
        ],
    )
    def test_a_wrong_product_is_a_multiplicativity_violation(
        self, corrupt, cold_gamma, monkeypatch
    ):
        decompose = ChordDiagram.join_decompose

        def corrupted(self):
            factors = decompose(self)
            return corrupt(factors) if len(factors) > 1 else factors

        monkeypatch.setattr(ChordDiagram, "join_decompose", corrupted)
        assert check_multiplicativity(2, 2)["violations"] > 0

    def test_multiplicativity_walks_each_product(self, cold_gamma, monkeypatch):
        # A wrong order-2 walk enters every product through its factors: only
        # a product evaluated by its own walk can disagree with them.
        def corrupted(m):
            walked = _genus_distribution(m)
            return walked + IntPolynomial([1]) if m.num_edges == 2 else walked

        monkeypatch.setattr(weight_system, "_genus_distribution", corrupted)
        assert check_multiplicativity(2, 2)["violations"] > 0


# walks of a cold check_4T of order n: one class per orbit of the prime classes of
# orders 0..n under mirror image and one-vertex partial duality
COLD_WALKS = [(4, 9), (5, 19), (6, 57)]


@functools.cache
def _orbits(n):
    """The number of orbits of order-n prime classes under mirrors and one-vertex partial duals.

    A union-find over the diagrams themselves, joined through the reversed
    word and ``ChordDiagram.from_map`` of each one-vertex ``partial_dual_diagram``.
    """
    # the empty diagram has no factor at all, and its class is walked too
    primes = [d for d in enumerate_diagrams(n) if len(d.join_decompose()) <= 1]
    parent = {d: d for d in primes}

    def root(d):
        while parent[d] != d:
            d = parent[d]
        return d

    for d in primes:
        partners = [ChordDiagram(d.word[::-1])]
        for size in range(1, n + 1):
            for chords in itertools.combinations(d.labels(), size):
                m = partial_dual_diagram(d, chords)
                if len(m.vertices()) == 1:
                    partners.append(ChordDiagram.from_map(m))
        for e in partners:
            parent[root(e)] = root(d)
    return len({root(d) for d in primes})


def _wrong_entries(n):
    """The classes of order n whose ``_gamma_table`` entry is not their own walk's polynomial."""
    table = _gamma_table(n)
    assert len(table) == len(enumerate_diagrams(n))
    return [
        d
        for d, polynomial in zip(enumerate_diagrams(n), table)
        if polynomial != _genus_distribution(d.to_map())
    ]


def _general_sources(n):
    """``_class_sources(n)`` without its shortcuts: no isolated-chord rule, every chord set traced.

    Each connected sum is split at the interlace component of chord 1 and
    both parts looked up by ``_class_id``; each walked class traces sigma_T
    from position 0 for all 2^n - 1 nonempty chord sets T.
    """
    canonical = diagrams._classes(n)[1]
    sources = [None] * len(canonical)
    for i, word in enumerate(canonical):
        if sources[i] is not None:
            continue
        component = next(diagrams._components(diagrams._interlace_masks(word)), [])
        if len(component) < n:
            chord1 = [label for label in word if label - 1 in component]
            rest = [label for label in word if label - 1 not in component]
            sources[i] = (len(component), _class_id(chord1), n - len(component), _class_id(rest))
            continue
        mirror = _class_id(word[::-1])
        if sources[mirror] is not None:
            sources[i] = sources[mirror] or (mirror,)
            continue
        sources[i] = ()
        ends = {}
        for q, label in enumerate(word):
            ends.setdefault(label, []).append(q)
        partner = {q: p for p, q in ends.values()} | {p: q for p, q in ends.values()}
        for t in range(1, 1 << n):
            h, circle = 0, []
            while True:
                circle.append(word[h])
                h = ((partner[h] if t >> word[h] - 1 & 1 else h) + 1) % len(word)
                if not h:
                    break
            if len(circle) == len(word):
                j = _class_id(circle)
                if sources[j] is None:
                    sources[j] = (i,)
    return tuple(sources)


class TestGammaTable:
    """The polynomials of a whole order by class id, filled from ``_class_sources``.

    Products of lower-order entries, copies of an earlier entry of the same
    order, and ``pd_genus_polynomial`` of the one class walked per orbit;
    each entry is checked against the class's own walk.
    """

    @pytest.mark.parametrize("n", range(7))
    def test_every_entry_matches_its_own_walk(self, n):
        assert _wrong_entries(n) == []

    @pytest.mark.slow
    def test_every_entry_matches_its_own_walk_at_order_seven(self, cold_gamma):
        assert _wrong_entries(7) == []

    @pytest.mark.parametrize("n", range(7))
    def test_every_source_points_back(self, n):
        sources = _class_sources(n)
        for i, source in enumerate(sources):
            if len(source) == 4:  # a connected sum of two classes of lower orders
                k1, i1, k2, i2 = source
                assert k1 + k2 == n and 0 < k1 < n
                assert i1 < len(enumerate_diagrams(k1)) and i2 < len(enumerate_diagrams(k2))
            elif source:  # a copy of a walked class of this order
                assert source[0] < i and sources[source[0]] == ()

    @pytest.mark.parametrize("n", range(7))
    def test_sources_match_the_general_rules(self, n):
        assert _class_sources(n) == _general_sources(n)

    @pytest.mark.slow
    def test_sources_match_the_general_rules_at_order_seven(self):
        assert _class_sources(7) == _general_sources(7)

    def test_a_wrong_skeleton_of_an_isolated_chord_is_a_wrong_entry(self, monkeypatch):
        # a class whose canonical word starts 1 1 takes the skeleton word[2:] as its factor
        sources = weight_system._class_sources

        def wrong(n):
            canonical = diagrams._classes(n)[1]
            return tuple(
                (1, 0, n - 1, 0) if len(s) == 4 and canonical[i][:2] == (1, 1) else s
                for i, s in enumerate(sources(n))
            )

        monkeypatch.setattr(weight_system, "_class_sources", wrong)
        assert _wrong_entries(5)

    @pytest.mark.parametrize("n, walks", COLD_WALKS)
    def test_a_cold_check_4T_walks_one_class_per_orbit(self, n, walks, cold_gamma, monkeypatch):
        walked = _count_walks(monkeypatch)
        assert check_4T(n)["violations"] == 0
        assert len(walked) == walks

    def test_cold_walk_totals_are_running_totals_of_orbits(self):
        orbits = [_orbits(n) for n in range(7)]
        assert orbits == [1, 1, 1, 2, 4, 10, 38]
        totals = list(itertools.accumulate(orbits))
        assert [(n, totals[n]) for n, _ in COLD_WALKS] == COLD_WALKS

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda k1, i1, k2, i2: (0, 0, k2, i2),  # the factor of chord 1 dropped
            lambda k1, i1, k2, i2: (k1, i1, k1, i1),  # it counted twice, the rest dropped
        ],
    )
    def test_a_wrong_factor_is_a_wrong_entry(self, corrupt, monkeypatch):
        # A connected sum's entry is the product of its two factor sources.
        sources = weight_system._class_sources
        monkeypatch.setattr(
            weight_system,
            "_class_sources",
            lambda n: tuple(corrupt(*s) if len(s) == 4 else s for s in sources(n)),
        )
        assert _wrong_entries(4)

    def test_a_wrong_dual_is_a_wrong_entry(self, monkeypatch):
        # Every walked class also claims the class whose chords all interlace.
        duals = diagrams._one_vertex_duals

        def wrong(word):
            yield from duals(word)
            yield tuple(range(1, len(word) // 2 + 1)) * 2

        monkeypatch.setattr(diagrams, "_one_vertex_duals", wrong)
        assert _wrong_entries(5)


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


def _quadruples(n):
    """``generate_4T_quadruples(n)`` with each packed int read back as its 4-tuple of class ids."""
    w = len(enumerate_diagrams(n)).bit_length()
    return tuple(
        tuple(q >> k * w & (1 << w) - 1 for k in (3, 2, 1, 0)) for q in generate_4T_quadruples(n)
    )


def _dict_vectors(n):
    """The distinct relation vectors a - b + c - d of order n, one dict per quadruple, sorted."""
    vectors = set()
    for quad in _quadruples(n):
        row = {}
        for sign, i in zip((1, -1, 1, -1), quad):
            row[i] = row.get(i, 0) + sign
        key = tuple(sorted((i, c) for i, c in row.items() if c))
        if key:
            vectors.add(key)
    return [dict(key) for key in sorted(vectors)]


def _up_to_sign(rows):
    """Each row as its sorted item tuple or its negation's, whichever is less."""
    return [min(tuple(sorted(row.items())), tuple(sorted((i, -c) for i, c in row.items()))) for row in rows]


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
        for quad in _quadruples(2):
            d1, d2, d3, d4 = (diagrams[i] for i in quad)
            if d1 == d2 and d3 == d4:
                g1, g2, g3, g4 = (pd_genus_polynomial(d) for d in (d1, d2, d3, d4))
                assert g1 - g2 + g3 - g4 == IntPolynomial()

    @staticmethod
    def _assert_matches_oracle(n, count):
        words = [d.word for d in enumerate_diagrams(n)]
        quadruples = _quadruples(n)
        assert list(quadruples) == sorted(set(quadruples))
        generated = {tuple(words[i] for i in quad) for quad in quadruples}
        assert generated == _oracle_quadruple_keys(n)
        assert len(generated) == len(quadruples) == count

    def test_matches_independent_event_enumeration(self):
        for n, count in ((3, 6), (4, 45)):
            self._assert_matches_oracle(n, count)

    @pytest.mark.slow
    def test_matches_independent_event_enumeration_at_order_five(self):
        self._assert_matches_oracle(5, 420)

    @pytest.mark.parametrize(
        "n, count, digest",
        [(5, 420, "f7f4f52c50f7a14b"), (6, 4724, "b002e5febd7b2d9a"), (7, 62370, "6046ae6309057427")],
    )
    def test_pinned_output(self, n, count, digest):
        quadruples = _quadruples(n)
        assert len(quadruples) == count
        assert hashlib.sha256(repr(quadruples).encode()).hexdigest()[:16] == digest

    @staticmethod
    def _assert_vectors_match_dict_oracle(n):
        keys = _up_to_sign(quadruple_vectors(n))
        assert len(set(keys)) == len(keys)  # no row is another row or its negation
        assert set(keys) == set(_up_to_sign(_dict_vectors(n)))

    @pytest.mark.parametrize("n", range(7))
    def test_vectors_match_the_dict_oracle_up_to_sign(self, n):
        self._assert_vectors_match_dict_oracle(n)

    @pytest.mark.slow
    def test_vectors_match_the_dict_oracle_up_to_sign_at_order_seven(self):
        self._assert_vectors_match_dict_oracle(7)

    def test_vector_counts(self):
        # the dict oracle keeps a vector and its negation apart: 397, 4 610 and 61 415 at orders 5-7
        assert [len(quadruple_vectors(n)) for n in range(7)] == [0, 0, 0, 2, 25, 366, 4477]

    def test_vectors_at_order_six_peak_under_two_mib(self):
        # the class store warm; the quadruples are made, and freed, inside
        peak = fresh_peak(
            "from pdgenus.diagrams import _classes\n"
            "from pdgenus.weight_system import quadruple_vectors\n"
            "_classes(6)",
            "quadruple_vectors(6)",
        )
        # about 1.3 MiB; a dict and an item tuple per quadruple took 2.7 MiB
        assert peak < 2 * 2**20

    def test_orders_below_two_have_no_quadruples(self):
        assert generate_4T_quadruples(0) == generate_4T_quadruples(1) == ()
        assert quadruple_vectors(0) == quadruple_vectors(1) == []
        assert check_4T(1) == {"n": 1, "quadruples": 0, "violations": 0, "violations_list": []}
        with pytest.raises(ValueError):
            generate_4T_quadruples(-1)


class TestCheck4T:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_genus_polynomial_has_no_violations(self, n):
        report = check_4T(n)
        assert report["violations"] == 0
        assert report["violations_list"] == []

    def test_script_without_main_guard_runs_in_one_process(self, tmp_path):
        script = tmp_path / "check.py"
        script.write_text(
            "import json, sys\n"
            "import pdgenus\n"
            "print(json.dumps(pdgenus.check_4T(4, threads=2), sort_keys=True))\n"
            "pools = ('concurrent.futures.process', 'multiprocessing')\n"
            "print(any(name in sys.modules for name in pools))\n"
        )
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [json.dumps(check_4T(4), sort_keys=True), "False"]

    def test_import_loads_no_process_pool(self):
        code = "import sys, pdgenus; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "False"

    def test_order_is_read_as_an_integer_index(self):
        assert json.dumps(check_4T(True)) == json.dumps(check_4T(1))
        assert dim_quotient(True) == dim_quotient(1) == 1
        for order in ("2", 2.0):
            for check in (check_4T, dim_quotient):
                with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                    check(order)

    def test_threads_below_one_rejected_before_any_work(self, monkeypatch):
        calls = []
        for name in ("_gamma_table", "generate_4T_quadruples"):
            monkeypatch.setattr(weight_system, name, calls.append)
        with pytest.raises(ValueError, match="threads"):
            check_4T(4, threads=0)
        assert calls == []

    @staticmethod
    def _tabulate(monkeypatch, invariant):
        """Make check_4T read ``invariant`` of each class in place of the genus polynomial."""
        monkeypatch.setattr(
            weight_system, "_gamma_table", lambda n: tuple(map(invariant, enumerate_diagrams(n)))
        )

    def test_broken_invariant_is_reported(self, monkeypatch):
        # indicator of an isolated chord: not a weight system
        def has_isolated_chord(d):
            return IntPolynomial([1 if 0 in d.interlace_sequence().counts else 0])

        self._tabulate(monkeypatch, has_isolated_chord)
        report = check_4T(3)
        assert report["violations"] > 0
        first = report["violations_list"][0]
        assert set(first) == {"quadruple", "residual"}
        # the witness names the four diagrams by canonical word, in quadruple order
        assert report["violations"] == 2
        assert first == {
            "quadruple": ["1 1 2 3 2 3", "1 2 1 3 2 3", "1 2 3 1 2 3", "1 2 1 3 2 3"],
            "residual": {"coeffs": [1]},
        }

    def test_residual_only_in_the_top_coefficient(self, monkeypatch):
        # 1 + z^2 on a seeded half of the classes and 1 elsewhere: the four
        # values have different lengths, and a residual shows only at z^2
        diagrams = enumerate_diagrams(4)
        rng = random.Random(3)
        marks = [rng.randrange(2) for _ in diagrams]
        values = {d.word: IntPolynomial([1, 0, 1] if m else [1]) for d, m in zip(diagrams, marks)}

        expected, patterns = [], set()
        for quad in _quadruples(4):
            a, b, c, d = (values[diagrams[i].word] for i in quad)
            residual = a - b + c - d
            if residual:
                expected.append(
                    {"quadruple": [str(diagrams[i]) for i in quad], "residual": residual.to_json()}
                )
                patterns.add(tuple(marks[i] for i in quad))
        # violations where one pair of values agrees and the other does not,
        # and where the first equals the third and the second the fourth
        assert any(m[0] == m[1] and m[2] != m[3] for m in patterns)
        assert any(m[0] == m[2] != m[1] == m[3] for m in patterns)
        self._tabulate(monkeypatch, lambda d: values[d.word])
        report = check_4T(4)
        assert report["violations"] == len(expected)
        assert report["violations_list"] == expected

    @pytest.mark.parametrize(
        "odd, even, residuals",
        [
            ([1 << 6], [0, 1], [[-64, 1], [64, -1]]),
            # z**2 cancels in every residual; a shift from the largest signed
            # coefficient, 4, would again be 6
            ([-(1 << 6), 0, 4], [0, -1, 4], [[64, -1], [-64, 1]]),
        ],
    )
    def test_residual_test_reads_the_shift_from_the_table(self, odd, even, residuals, monkeypatch):
        # At order 3 the constant 2**(3 + 3) on odd class ids equals z on even
        # ones at z = 2**6: a shift fixed at n + 3 would find no violation.
        odd, even = IntPolynomial(odd), IntPolynomial(even)
        monkeypatch.setattr(
            weight_system,
            "_gamma_table",
            lambda n: tuple(odd if i % 2 else even for i in range(len(enumerate_diagrams(n)))),
        )
        report = check_4T(3)
        assert report["violations"] == 2
        assert report["violations_list"] == [
            {
                "quadruple": ["1 1 2 3 2 3", "1 2 1 3 2 3", "1 2 3 1 2 3", "1 2 1 3 2 3"],
                "residual": {"coeffs": residuals[0]},
            },
            {
                "quadruple": ["1 2 1 3 2 3", "1 1 2 3 2 3", "1 2 1 3 2 3", "1 2 3 1 2 3"],
                "residual": {"coeffs": residuals[1]},
            },
        ]

    def test_bare_genus_passes_by_slide_pairing(self, monkeypatch):
        # the quadruple partners differ by single edge slides, so genus
        # itself cancels in the alternating sum; this is a consequence of
        # slide invariance, not a defect of the harness
        self._tabulate(monkeypatch, lambda d: IntPolynomial([d.genus()]))
        assert check_4T(4)["violations"] == 0

    @pytest.mark.parametrize("n, violations", [(3, 2), (4, 12), (5, 80)])
    def test_a_wrong_walk_is_a_violation(self, n, violations, cold_gamma, monkeypatch):
        # A wrong walk of the order-2 prime reaches check_4T(n) only through
        # the table entries of the products that have it as a factor.
        def corrupted(m):
            walked = _genus_distribution(m)
            return walked + IntPolynomial([1]) if m.num_edges == 2 else walked

        monkeypatch.setattr(weight_system, "_genus_distribution", corrupted)
        assert check_4T(n)["violations"] == violations


# Dimensions P_1..P_7 of the primitive space of the quotient (Bar-Natan, Topology 1995)
PRIMITIVE_DIMENSIONS = (1, 1, 1, 2, 3, 5, 8)


def _euler_transform(primitives, top):
    """Coefficients of x**0..x**top in the product over k of (1 - x**k) ** -primitives[k - 1]."""
    series = [1] + [0] * top
    for k, count in enumerate(primitives, 1):
        for _ in range(count):
            for i in range(k, top + 1):  # times 1 / (1 - x**k)
                series[i] += series[i - k]
    return series


class TestQuotientDimensions:
    def test_milnor_moore(self):
        # the quotient is a graded commutative and cocommutative Hopf algebra,
        # so it is the polynomial algebra on its primitives
        assert [dim_quotient(n) for n in range(7)] == _euler_transform(
            PRIMITIVE_DIMENSIONS[:6], 6
        )

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
        assert dim_quotient(7) == 33 == _euler_transform(PRIMITIVE_DIMENSIONS, 7)[7]


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

    def test_relations_eliminated_once_per_order(self, monkeypatch):
        calls = []
        nullspace = RationalMatrix.nullspace
        monkeypatch.setattr(RationalMatrix, "nullspace", lambda m: calls.append(m) or nullspace(m))
        basis = self._basis()
        for b in basis:
            express_modulo_4T(b, basis)
        assert len(calls) <= 1

    def test_basis_checked_once_per_basis(self, monkeypatch):
        basis = self._basis()
        express_modulo_4T(basis[0], basis)  # builds and ranks the basis' values
        calls = []
        rank = RationalMatrix.rank
        monkeypatch.setattr(RationalMatrix, "rank", lambda m: calls.append(m) or rank(m))
        rotated = [ChordDiagram(b.word[1:] + b.word[:1]) for b in basis]  # the same class ids
        for b in basis:
            express_modulo_4T(b, basis)
            express_modulo_4T(b, rotated)
        assert calls == []

    def test_dependent_basis_rejected_on_every_call(self):
        dependent = [P("1 1 2 2 3 4 3 4"), P("1 1 2 3 4 4 2 3")]
        for target in (P("1 1 2 2 3 3 4 4"), P("1 1 2 2 3 3 4 4"), dependent[0]):
            with pytest.raises(NotABasisError):
                express_modulo_4T(target, dependent)

    def test_class_ids_need_no_rotation_search(self, monkeypatch):
        target, basis = P("1 2 1 3 4 2 3 4"), self._basis()
        expected = express_modulo_4T(target, basis)  # warms _weight_systems(4)

        def no_rotation_search(word):
            raise AssertionError("express_modulo_4T searched the rotations of a word")

        monkeypatch.setattr(diagrams, "_least_rotation", no_rotation_search)
        rotated = [ChordDiagram(d.word[3:] + d.word[:3]) for d in [target, *basis]]
        assert express_modulo_4T(rotated[0], rotated[1:]) == expected

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

    def test_every_member_is_walked(self, monkeypatch):
        walked = _count_walks(monkeypatch)
        check_intersection_graph_invariance(4)
        assert len(walked) == len(enumerate_diagrams(4))

    def test_a_differing_member_is_reported_with_its_class(self, monkeypatch):
        # the second of the three order-4 diagrams whose chords cross nothing walks to 16 + z
        odd_one = P("1 1 2 2 3 4 4 3").to_map()

        def wrong_walk(m):
            poly = _genus_distribution(m)
            return poly + IntPolynomial([0, 1]) if m == odd_one else poly

        monkeypatch.setattr(weight_system, "_genus_distribution", wrong_walk)
        report = check_intersection_graph_invariance(4)
        assert report["violations"] == 1
        assert report["violations_list"] == [
            {
                "diagrams": ["1 1 2 2 3 3 4 4", "1 1 2 2 3 4 4 3", "1 1 2 3 4 4 3 2"],
                "polynomials": [{"coeffs": [16]}, {"coeffs": [16, 1]}, {"coeffs": [16]}],
            }
        ]

    def test_order_four_coincidence_classes(self):
        report = check_intersection_graph_invariance(4)
        by_poly = {}
        for entry in report["class_list"]:
            key = tuple(entry["polynomial"]["coeffs"])
            by_poly.setdefault(key, []).append(entry["size"])
        assert 3 in by_poly[(16,)]          # three disjoint-chord diagrams
        assert 4 in by_poly[(8, 8)]         # the 4(2+2z) class
        assert 3 in by_poly[(4, 12)]        # the 2(2+6z) class
