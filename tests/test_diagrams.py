import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from pdgenus import diagrams
from pdgenus.diagrams import (
    ChordDiagram,
    CutOutOfRangeError,
    EmptyCaravanError,
    LabelCountError,
    OddLengthError,
    UnknownChordError,
    _class_id,
    caravan,
    enumerate_diagrams,
    normalize_labels,
    partial_dual_diagram,
    product,
)
from pdgenus.maps import CombinatorialMap

P = ChordDiagram.parse


def fresh_peak(setup: str, measured: str) -> int:
    """The tracemalloc peak of the code ``measured``, run after ``setup`` in a fresh interpreter.

    No cache is filled, and no free list primed, by the tests that ran before.
    """
    code = f"import tracemalloc\n{setup}\ntracemalloc.start()\n{measured}\nprint(tracemalloc.get_traced_memory()[1])\n"
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert child.returncode == 0, child.stderr
    return int(child.stdout)


class TestParsing:
    def test_whitespace_tokens(self):
        assert P("1 2 1 2").word == (1, 2, 1, 2)

    def test_compact_characters(self):
        assert P("abba cc") == P("1 2 2 1 3 3")

    def test_one_chord(self):
        assert P("1 1").order == 1

    def test_odd_length_rejected(self):
        with pytest.raises(OddLengthError):
            P("1 2 1")

    def test_bad_label_count_rejected(self):
        with pytest.raises(LabelCountError):
            P("1 1 1 2 2 1")
        with pytest.raises(LabelCountError):
            P("1 2 2 3")

    def test_empty_diagram(self):
        assert P("").order == 0


class TestCanonicalForm:
    def test_rotated_interlaced_pair(self):
        assert P("2 1 2 1").canonical().word == (1, 2, 1, 2)

    def test_nested_pair(self):
        assert P("1 2 2 1").canonical().word == (1, 1, 2, 2)

    def test_idempotent_exhaustive(self):
        for n in range(1, 5):
            for d in enumerate_diagrams(n):
                assert d.canonical().word == d.word
                assert d.canonical().canonical() == d.canonical()

    def test_canonical_form_holds_one_rotation_at_a_time(self):
        pairs = [x for k in range(125) for x in (2 * k + 1, 2 * k + 2, 2 * k + 1, 2 * k + 2)]
        d = ChordDiagram(pairs[3:] + pairs[:3])  # 250 chords, not in canonical position
        tracemalloc.start()
        try:
            word = d.canonical().word
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word == tuple(pairs)
        assert peak < 1 << 20

    def test_all_rotations_agree(self):
        rng = random.Random(1)
        for n in (2, 3, 4):
            for d in rng.sample(enumerate_diagrams(n), min(6, len(enumerate_diagrams(n)))):
                w = d.word
                for r in range(len(w)):
                    rotated = ChordDiagram(w[r:] + w[:r])
                    assert rotated == d

    def test_equality_ignores_labels(self):
        assert P("7 3 7 3") == P("1 2 1 2")
        assert hash(P("7 3 7 3")) == hash(P("1 2 1 2"))

    def test_repr_keeps_the_labels(self):
        assert repr(P("7 3 7 3")) == "ChordDiagram.parse('7 3 7 3')"

    def test_ordering_against_a_non_diagram_raises_type_error(self):
        with pytest.raises(TypeError):
            P("1 2 1 2") < 1


def _least_rotation_oracle(word):
    """The least normalized rotation by its definition: every rotation normalized in full."""
    return min((normalize_labels(word[s:] + word[:s]) for s in range(len(word))), default=())


def _random_word(rng, n, labels=range):
    word = [label for label in labels(n) for _ in range(2)]
    rng.shuffle(word)
    return tuple(word)


class TestLeastRotation:
    @pytest.mark.parametrize("n", range(7))
    def test_every_word_matches_the_all_rotations_minimum(self, n):
        for word in _words(n):
            for variant in (word, word[1:] + word[:1], word[3:] + word[:3], word[::-1]):
                expected = _least_rotation_oracle(variant)
                assert diagrams._least_rotation(variant) == expected, variant

    @pytest.mark.parametrize("n", range(7, 13))
    def test_random_words_match_the_all_rotations_minimum(self, n):
        rng = random.Random(n)
        for _ in range(100):
            word = _random_word(rng, n)
            assert diagrams._least_rotation(word) == _least_rotation_oracle(word), word

    def test_labels_need_not_be_integers(self):
        rng = random.Random(2)
        for n in range(1, 9):
            for labels in (lambda k: "abcdefgh"[:k], lambda k: [(i, "x") for i in range(k)]):
                word = _random_word(rng, n, labels)
                assert diagrams._least_rotation(word) == _least_rotation_oracle(word), word

    def test_a_random_word_normalizes_at_most_two_rotations(self, monkeypatch):
        calls = []

        def counted(word):
            calls.append(len(word))
            return normalize_labels(word)

        word = _random_word(random.Random(50), 50)
        expected = _least_rotation_oracle(word)
        monkeypatch.setattr(diagrams, "normalize_labels", counted)
        assert diagrams._least_rotation(word) == expected
        assert calls and len(calls) <= 2

    @pytest.mark.parametrize("n", range(1, 6))
    def test_a_word_of_diameters_normalizes_once(self, n, monkeypatch):
        # every chord joins opposite points, so every start is at a shortest chord
        calls = []

        def counted(word):
            calls.append(len(word))
            return normalize_labels(word)

        word = tuple(random.Random(n).sample(range(n), n)) * 2
        monkeypatch.setattr(diagrams, "normalize_labels", counted)
        assert diagrams._least_rotation(word) == tuple(range(1, n + 1)) * 2
        assert calls == [2 * n]


class TestMirror:
    @pytest.mark.parametrize("n", range(7))
    def test_mirror_is_the_canonical_reversed_word_and_an_involution(self, n):
        # _class_sources copies a mirror's γ entry by the class id of the reversed word
        canonical = diagrams._classes(n)[1]
        mirrors = [_class_id(word[::-1]) for word in canonical]
        for word, j in zip(canonical, mirrors):
            assert canonical[j] == ChordDiagram(word[::-1]).canonical().word, word
        assert [mirrors[j] for j in mirrors] == list(range(len(canonical)))

    def test_classes_up_to_reflection_match_the_published_counts(self):
        # OEIS A007769: chord diagrams of n chords up to rotation and reflection
        counts = [
            len({min(d, ChordDiagram(d.word[::-1])) for d in enumerate_diagrams(n)})
            for n in range(7)
        ]
        assert counts == [1, 1, 2, 5, 17, 79, 554]


def _matchings(points):
    """All perfect matchings of an even point set, as tuples of pairs.

    The independent oracle for the class table, which is built by chord
    insertion from the numbering one order below.
    """
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, second in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _matchings(remaining):
            yield ((first, second),) + tail


def _burnside_count(n):
    """Diagrams up to rotation, counted without any canonicalization."""
    matchings = list(_matchings(tuple(range(2 * n))))
    as_sets = [frozenset(map(frozenset, m)) for m in matchings]
    total = 0
    for k in range(2 * n):
        rotate = lambda p: frozenset(
            frozenset((a + k) % (2 * n) for a in pair) for pair in p
        )
        total += sum(1 for m in as_sets if rotate(m) == m)
    assert total % (2 * n) == 0
    return total // (2 * n)


class TestEnumeration:
    def test_small_counts(self):
        assert [len(enumerate_diagrams(n)) for n in (1, 2, 3, 4)] == [1, 2, 5, 18]

    def test_outputs_are_canonical_and_sorted(self):
        for n in (1, 2, 3, 4):
            diagrams = enumerate_diagrams(n)
            assert all(d.canonical().word == d.word for d in diagrams)
            words = [d.word for d in diagrams]
            assert words == sorted(words)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_burnside_lemma(self, n):
        assert len(enumerate_diagrams(n)) == _burnside_count(n)

    def test_burnside_at_order_five(self):
        assert len(enumerate_diagrams(5)) == _burnside_count(5) == 105


def _matching_word(matching, n):
    word = [0] * (2 * n)
    for label, (a, b) in enumerate(matching, start=1):
        word[a] = word[b] = label
    return tuple(word)


def _words(n):
    """Every normalized word of order n in number order: the numbering's keys, lowered by one."""
    return [tuple(label - 1 for label in key) for key in diagrams._numbering(n)]


class TestClassTable:
    @pytest.mark.parametrize("n, matchings", [(0, 1), (1, 1), (2, 3), (3, 15), (4, 105), (5, 945)])
    def test_one_entry_per_matching(self, n, matchings):
        assert len(diagrams._classes(n)[0]) == len(set(_words(n))) == matchings
        assert _class_id(_words(n)[0]) == 0  # the chords side by side

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ids_index_the_rotation_search_canonical_forms(self, n):
        # ChordDiagram.canonical() searches all rotations: an independent oracle
        position = {d.word: i for i, d in enumerate(enumerate_diagrams(n))}
        rng = random.Random(n)
        for matching in _matchings(tuple(range(2 * n))):
            word = _matching_word(matching, n)
            expected = position[ChordDiagram(word).canonical().word]
            shift = rng.randrange(2 * n)
            letter = {label: chr(ord("a") + n - label) for label in word}  # in reverse order
            assert _class_id(word) == expected
            assert _class_id(word[shift:] + word[:shift]) == expected
            assert _class_id([letter[label] for label in word]) == expected

    @pytest.mark.parametrize(
        "n, matchings, digest",
        [(5, 945, "8cc5f4fe581b8fe3"), (6, 10395, "5b4056ccae757861")],
    )
    def test_pinned_table(self, n, matchings, digest):
        # the digest of the former dict from every normalized word to its class id
        items = sorted(zip(_words(n), diagrams._classes(n)[0]))
        assert len(items) == matchings
        assert hashlib.sha256(repr(items).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ids_ordered_by_canonical_word(self, n):
        canonical = [d.word for d in enumerate_diagrams(n)]
        assert canonical == sorted(canonical)
        assert [_class_id(w) for w in canonical] == list(range(len(canonical)))

    def test_enumerated_diagrams_need_no_rotation_search(self):
        d = enumerate_diagrams(4)[7]
        assert d._canonical_word == d.word
        assert d.canonical() is d


class TestRotation:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rotation_is_the_number_of_the_word_moved_one_step(self, n):
        # relabelling the rotated word and looking up its number is an independent oracle
        rot = diagrams._rotation(n)
        words = _words(n)
        assert len(rot) == len(words)
        for number, word in enumerate(words):
            assert rot[number] == diagrams._number(normalize_labels(word[1:] + word[:1])), word

    @pytest.mark.parametrize("n", range(8))
    def test_rotation_applied_2n_times_is_the_identity(self, n):
        rot = diagrams._rotation(n)
        x = list(range(len(rot)))
        for _ in range(2 * n):
            x = [rot[y] for y in x]
        assert x == list(range(len(rot)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_are_the_cycles_of_the_rotation(self, n):
        ids, canonical = diagrams._classes(n)
        rot = diagrams._rotation(n)
        assert all(ids[rot[x]] == ids[x] for x in range(len(rot)))
        assert sorted(set(ids)) == list(range(len(canonical)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_chord_one_of_a_canonical_word_closes_within_n_letters(self, n):
        # a shortest chord encloses distinct chords only, at most n - 1 of them, so
        # _classes meets every least member in the first n gaps
        for word in (d.word for d in enumerate_diagrams(n)):
            assert _least_rotation_oracle(word) == word
            assert word.index(1, 1) <= n, word

    def test_class_ids_share_one_int_object_per_class(self):
        # 902 classes at order 6: ids above 256 are not CPython's cached small ints
        assert len({id(i) for i in diagrams._classes(6)[0]}) == 902

    def test_pinned_classes_of_orders_zero_to_seven(self):
        classes = repr([diagrams._classes(n) for n in range(8)])
        assert hashlib.sha256(classes.encode()).hexdigest()[:16] == "0f71fcee1b4760ea"

    @pytest.mark.slow
    def test_pinned_classes_of_order_eight(self):
        classes = repr(diagrams._classes(8))
        assert hashlib.sha256(classes.encode()).hexdigest()[:16] == "cbd04298785539f7"


class TestNumbering:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_word_number_is_skeleton_and_gap(self, n):
        # word k * (2n - 1) + j: skeleton k, raised by one, with chord 1 at 0 and in gap j
        skeletons = _words(n - 1)
        words = _words(n)
        assert len(words) == math.prod(range(1, 2 * n, 2))
        # the brute-force matchings are an independent oracle for the set of words
        assert set(words) == {
            normalize_labels(_matching_word(m, n)) for m in _matchings(tuple(range(2 * n)))
        }
        for number, word in enumerate(words):
            k, gap = divmod(number, 2 * n - 1)
            j = word.index(1, 1)
            assert (word[0], j) == (1, gap + 1)
            assert tuple(label - 1 for label in word[1:j] + word[j + 1 :]) == skeletons[k]
            assert diagrams._number(word) == number
        assert list(diagrams._numbering(n - 1).values()) == list(range(len(skeletons)))

    def test_cold_order_six_quadruples_and_diagrams_peak_under_1_5_mib(self):
        # a fresh interpreter, so that no class table is cached
        peak = fresh_peak(
            "from pdgenus.diagrams import enumerate_diagrams\n"
            "from pdgenus.weight_system import generate_4T_quadruples",
            "generate_4T_quadruples(6)\nenumerate_diagrams(6)",
        )
        assert peak < 3 << 19

    def test_order_six_quadruples_peak_under_300_kib_over_the_class_table(self):
        # one packed int per quadruple: no 4-tuples and no dedup set
        peak = fresh_peak(
            "from pdgenus.diagrams import _classes, generate_4T_quadruples\n_classes(6)",
            "generate_4T_quadruples(6)",
        )
        assert peak < 300 << 10


class TestMapConversion:
    def test_fourth_order3_diagram_is_genus_one(self):
        m = P("1 2 1 3 2 3").to_map()
        assert m.counts()[:3] == (1, 3, 2)
        assert m.genus() == 1

    def test_one_chord(self):
        m = P("1 1").to_map()
        assert m.counts()[:3] == (1, 1, 2)
        assert m.genus() == 0

    def test_interlaced_pair(self):
        m = P("1 2 1 2").to_map()
        assert m.counts()[:3] == (1, 2, 1)
        assert m.genus() == 1

    def test_round_trip_exhaustive(self):
        for n in range(1, 5):
            for d in enumerate_diagrams(n):
                m = d.to_map()
                assert len(m.vertices()) == 1
                assert ChordDiagram.from_map(m) == d
                assert ChordDiagram.from_map(m).to_map() == m

    def test_edge_i_is_chord_labels_i(self):
        rng = random.Random(7)
        for n in range(1, 9):
            word = rng.sample(range(10, 99), n) * 2
            rng.shuffle(word)
            d = ChordDiagram(word)
            edges = d.to_map().edges
            assert [d.word[a] for a, _ in edges] == list(d.labels())

    def test_two_vertex_map_gives_two_circles(self):
        m = CombinatorialMap((1, 2, 0, 4, 5, 3), (3, 4, 5, 0, 1, 2))
        assert m.genus() == 1
        assert m.vertices() == ((0, 1, 2), (3, 4, 5))
        assert m.edges == ((0, 3), (1, 4), (2, 5))
        with pytest.raises(ValueError, match="map has 2 vertices, not one"):
            ChordDiagram.from_map(m)

    def test_map_without_a_vertex_is_not_a_diagram(self):
        with pytest.raises(ValueError, match="map has 0 vertices, not one"):
            ChordDiagram.from_map(P("").to_map())


class TestProduct:
    def test_two_interlaced_pairs(self):
        got = product(P("1 2 1 2"), P("1 2 1 2"))
        assert got == P("1 2 1 2 3 4 3 4")

    def test_empty_is_identity(self):
        d = P("1 2 1 2")
        assert product(d, P("")) == d
        assert product(P(""), d) == d

    def test_cut_positions(self):
        got = product(P("1 1"), P("2 2"), cut1=1, cut2=0)
        assert got.word == (1, 2, 2, 1)

    def test_cut_out_of_range(self):
        with pytest.raises(CutOutOfRangeError):
            product(P("1 1"), P("2 2"), cut1=3)

    def test_order_adds(self):
        assert product(P("1 1 2 2"), P("1 2 1 2")).order == 4


class TestInterlacement:
    def test_interlaced_pair_matrix(self):
        assert P("1 2 1 2").interlace_graph() == [[0, 1], [1, 0]]

    def test_disjoint_pair_matrix(self):
        assert P("1 1 2 2").interlace_graph() == [[0, 0], [0, 0]]

    def test_complete_graph(self):
        matrix = P("1 2 3 4 1 2 3 4").interlace_graph()
        assert all(
            matrix[i][j] == (1 if i != j else 0) for i in range(4) for j in range(4)
        )

    def test_symmetric_zero_diagonal(self):
        for d in enumerate_diagrams(4):
            m = d.interlace_graph()
            for i in range(4):
                assert m[i][i] == 0
                for j in range(4):
                    assert m[i][j] == m[j][i]

    def test_sequence_of_chain(self):
        assert P("1 2 1 3 2 3").interlace_sequence().counts == (1, 1, 2)

    def test_join_sequence_display(self):
        seq = P("1 2 1 2 3 4 3 4").interlace_sequence()
        assert str(seq) == "(1,1)∨(1,1)"
        assert len(seq.factors) > 1

    def test_quadruple_join_display(self):
        seq = P("1 1 2 2 3 3 4 4").interlace_sequence()
        assert str(seq) == "(0)∨(0)∨(0)∨(0)"

    def test_prime_sequence_display(self):
        assert str(P("1 2 1 3 2 3").interlace_sequence()) == "(1,1,2)"

    def test_sequence_repr(self):
        assert repr(P("1 2 1 3 2 3").interlace_sequence()) == (
            "InterlaceSequence(counts=(1, 1, 2), factors=((1, 1, 2),))"
        )
        assert repr(P("1 2 1 2 3 4 3 4").interlace_sequence()) == (
            "InterlaceSequence(counts=(1, 1, 1, 1), factors=((1, 1), (1, 1)))"
        )

    def test_sequence_is_an_immutable_value(self):
        seq = P("1 2 1 3 2 3").interlace_sequence()
        twin = P("1 2 3 1 3 2").interlace_sequence()
        assert seq is not twin and seq == twin and hash(seq) == hash(twin)
        assert seq != P("1 2 1 2 3 4 3 4").interlace_sequence()
        assert seq.counts == (1, 1, 2) and seq.factors == ((1, 1, 2),)
        with pytest.raises(AttributeError):
            seq.counts = (0,)
        with pytest.raises(AttributeError):
            seq.extra = 1
        assert seq.counts == (1, 1, 2)

    def test_product_sequence_is_multiset_union(self):
        rng = random.Random(4)
        for _ in range(30):
            n1, n2 = rng.randrange(1, 4), rng.randrange(1, 4)
            d1 = rng.choice(enumerate_diagrams(n1))
            d2 = rng.choice(enumerate_diagrams(n2))
            cut1 = rng.randrange(2 * n1)
            cut2 = rng.randrange(2 * n2)
            joined = product(d1, d2, cut1, cut2)
            merged = sorted(
                d1.interlace_sequence().counts + d2.interlace_sequence().counts
            )
            assert list(joined.interlace_sequence().counts) == merged


def _factors_by_endpoint_scans(d):
    """Interlace graph and join factors from one endpoint scan per chord."""
    labels = d.labels()
    spans = [[i for i, x in enumerate(d.word) if x == label] for label in labels]
    n = len(labels)
    matrix = [
        [int(sum(spans[i][0] < p < spans[i][1] for p in spans[j]) == 1) for j in range(n)]
        for i in range(n)
    ]
    component = list(range(n))
    for i in range(n):
        for j in range(n):
            if matrix[i][j]:
                old, new = component[j], component[i]
                component = [new if c == old else c for c in component]
    factors = []
    for c in sorted(set(component)):
        keep = {labels[i] for i in range(n) if component[i] == c}
        factors.append(ChordDiagram(x for x in d.word if x in keep).canonical().word)
    return matrix, sorted(factors, key=lambda w: (len(w), w))


class TestJoinDecompose:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_endpoint_scans(self, n):
        for canonical in enumerate_diagrams(n):
            for d in (canonical, ChordDiagram(canonical.word[1:] + canonical.word[:1])):
                matrix, factors = _factors_by_endpoint_scans(d)
                assert d.interlace_graph() == matrix, d
                assert [f.word for f in d.join_decompose()] == factors, d

    def test_random_connected_sums_match_endpoint_scans(self):
        # Up to about 100 chords, so the interlace bitmasks run past 64 bits.
        rng = random.Random(11)
        for _ in range(400):
            d, order = ChordDiagram(()), rng.randrange(101)
            while d.order < order:
                piece = rng.choice(enumerate_diagrams(rng.randrange(1, 7)))
                d = product(d, piece, rng.randrange(len(d.word) + 1), rng.randrange(len(piece.word)))
            shift = rng.randrange(len(d.word) or 1)
            d = ChordDiagram(d.word[shift:] + d.word[:shift])
            matrix, factors = _factors_by_endpoint_scans(d)
            assert d.interlace_graph() == matrix, d
            assert [f.word for f in d.join_decompose()] == factors, d
            assert d.interlace_sequence().counts == tuple(sorted(map(sum, matrix))), d

    def test_two_singles(self):
        assert P("1 1 2 2").join_decompose() == [P("1 1"), P("1 1")]

    def test_prime_diagram(self):
        assert P("1 2 1 2").join_decompose() == [P("1 2 1 2")]

    def test_two_interlaced_pairs(self):
        assert P("1 2 1 2 3 4 3 4").join_decompose() == [P("1 2 1 2"), P("1 2 1 2")]

    def test_nested_chords_split(self):
        assert P("1 2 2 1").join_decompose() == [P("1 1"), P("1 1")]

    def test_factors_rebuild_the_diagram(self):
        for n in (2, 3, 4):
            for d in enumerate_diagrams(n):
                factors = d.join_decompose()
                assert sum(f.order for f in factors) == n


class TestCaravan:
    def test_one_two_humped_camel(self):
        d = caravan(0, 1)
        assert d == P("1 2 1 2")
        assert d.genus() == 1
        assert d.to_map().counts()[2] == 1

    def test_two_one_humped_camels(self):
        d = caravan(2, 0)
        assert d == P("1 1 2 2")
        assert d.genus() == 0
        assert d.to_map().counts()[2] == 3

    def test_shape_table(self):
        for k in range(4):
            for g in range(4):
                if k + g == 0:
                    continue
                d = caravan(k, g)
                assert d.genus() == g
                assert d.to_map().counts()[2] == k + 1

    def test_empty_caravan_rejected(self):
        with pytest.raises(EmptyCaravanError):
            caravan(0, 0)
        with pytest.raises(EmptyCaravanError):
            caravan(-1, 2)

    def test_classifies_all_small_diagrams(self):
        # every diagram matches the caravan built from its own surface data
        for n in range(1, 5):
            for d in enumerate_diagrams(n):
                g = d.genus()
                f = d.to_map().counts()[2]
                c = caravan(f - 1, g)
                assert (c.genus(), c.to_map().counts()[2]) == (g, f)


class TestPartialDualDiagram:
    def test_chain_at_end_chord(self):
        m = partial_dual_diagram(P("1 2 1 3 2 3"), {1})
        assert m.vertices() == ((0, 3, 4, 5), (1, 2))
        assert m.edges == ((0, 2), (1, 4), (3, 5))
        assert m.genus() == 1
        with pytest.raises(ValueError, match="map has 2 vertices, not one"):
            ChordDiagram.from_map(m)

    def test_chain_at_middle_chord_is_planar(self):
        # the chord drawn through the middle: dualizing it flattens the surface
        m = partial_dual_diagram(P("1 2 1 3 2 3"), {2})
        assert len(m.vertices()) == 2
        assert m.genus() == 0

    def test_edge_i_is_still_chord_labels_i(self):
        d = P("5 7 5 9 7 9")
        m = partial_dual_diagram(d, {7})
        assert m == d.to_map().partial_dual([d.labels().index(7)])
        assert [d.word[a] for a, _ in m.edges] == list(d.labels())

    def test_empty_subset_is_the_diagram(self):
        d = P("1 2 1 3 2 3")
        m = partial_dual_diagram(d, set())
        assert len(m.vertices()) == 1
        assert ChordDiagram.from_map(m) == d

    def test_unknown_chord_rejected(self):
        with pytest.raises(UnknownChordError):
            partial_dual_diagram(P("1 2 1 2"), {9})

    def test_double_dual_round_trip_exhaustive(self):
        for n in (1, 2, 3):
            for d in enumerate_diagrams(n):
                m = d.to_map()
                for i in range(m.num_edges):
                    twice = m.partial_dual([i]).partial_dual([i])
                    assert ChordDiagram.from_map(twice) == d


def _one_vertex_dual_ids(d):
    """Class ids of ``from_map`` of each one-vertex partial dual of d over a nonempty chord set."""
    ids = Counter()
    labels = d.labels()
    for size in range(1, len(labels) + 1):
        for chords in combinations(labels, size):
            m = partial_dual_diagram(d, chords)
            if len(m.vertices()) == 1:
                ids[_class_id(ChordDiagram.from_map(m).word)] += 1
    return ids


class TestOneVertexDuals:
    """``_one_vertex_duals`` follows sigma_T from position 0 instead of building each dual."""

    @pytest.mark.parametrize("n", range(6))
    def test_matches_the_duals_read_from_their_maps(self, n):
        for d in enumerate_diagrams(n):
            assert Counter(map(_class_id, diagrams._one_vertex_duals(d.word))) == (
                _one_vertex_dual_ids(d)
            ), d

    @pytest.mark.slow
    def test_matches_the_duals_read_from_their_maps_at_order_six(self):
        for d in enumerate_diagrams(6):
            assert Counter(map(_class_id, diagrams._one_vertex_duals(d.word))) == (
                _one_vertex_dual_ids(d)
            ), d

    @pytest.mark.parametrize("n", range(1, 7))
    def test_an_odd_chord_set_has_a_dual_of_several_circles(self, n):
        # (V, T) has 1 vertex, |T| edges and f faces, and 1 - |T| + f = 2 - 2g; so
        # G^T has f vertices with f = 1 + |T| mod 2, and only an even T can give one
        for d in enumerate_diagrams(n):
            for size in range(1, n + 1, 2):
                for chords in combinations(d.labels(), size):
                    assert len(partial_dual_diagram(d, chords).vertices()) >= 2, (d, chords)

    def test_each_circle_is_read_from_position_zero(self):
        # 1 2 1 3 2 3 has two one-vertex duals: T = {1, 2}, then T = {2, 3}
        assert list(diagrams._one_vertex_duals((1, 2, 1, 3, 2, 3))) == [
            (1, 3, 2, 1, 2, 3),
            (1, 2, 3, 2, 1, 3),
        ]


class TestMultiCircleDiagram:
    """A diagram on several circles is a map with one vertex per circle."""

    def test_to_map_round_trip(self):
        for d in enumerate_diagrams(3):
            labels = d.labels()
            for mask in range(1 << len(labels)):
                chords = {label for i, label in enumerate(labels) if mask >> i & 1}
                m = partial_dual_diagram(d, chords)
                assert m.partial_dual(mask) == d.to_map()

    def test_multi_circle_to_diagram_rejected(self):
        seen = set()
        for d in enumerate_diagrams(3):
            m = d.to_map()
            for mask in range(1, 1 << m.num_edges):
                dual = m.partial_dual(mask)
                circles = len(dual.vertices())
                seen.add(circles)
                if circles > 1:
                    with pytest.raises(ValueError, match=f"map has {circles} vertices, not one"):
                        ChordDiagram.from_map(dual)
                else:
                    one = ChordDiagram.from_map(dual).to_map()
                    assert (one.num_edges, one.genus()) == (dual.num_edges, dual.genus())
        assert seen == {1, 2, 3, 4}
