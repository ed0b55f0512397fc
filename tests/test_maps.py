import itertools
import random

import pytest

from pdgenus.diagrams import ChordDiagram, enumerate_diagrams
from pdgenus.maps import (
    CombinatorialMap,
    EdgeOutOfRangeError,
    FixedPointError,
    NotAdjacentError,
    NotInvolutionError,
    SizeMismatchError,
    _discover,
    format_cycles,
)


def interlaced_pair():
    """One vertex, two interlaced chords: torus, genus 1."""
    return CombinatorialMap((1, 2, 3, 0), (2, 3, 0, 1))


def three_loop_chain():
    """One vertex, three loops, middle one interlacing both: genus 1."""
    return ChordDiagram.parse("1 2 1 3 2 3").to_map()


def random_map(rng, num_edges):
    n = 2 * num_edges
    sigma = list(range(n))
    rng.shuffle(sigma)
    halves = list(range(n))
    rng.shuffle(halves)
    alpha = [0] * n
    for a, b in zip(halves[0::2], halves[1::2]):
        alpha[a], alpha[b] = b, a
    return CombinatorialMap(sigma, alpha)


def _edge_of(m):
    """The index in ``m.edges`` of the edge each half-edge lies on."""
    edge_of = [0] * m.num_half_edges
    for i, ends in enumerate(m.edges):
        for h in ends:
            edge_of[h] = i
    return edge_of


def _spanning_subgraph_boundaries(m, mask):
    """The boundary components of (V, A), counted on (V, A) built as a map of its own.

    Each vertex keeps the half-edges of A in its rotation order, renamed
    0..2|A|-1 in order.  The faces of that map, plus one circle for each
    vertex with no half-edge in A, are the count: no partial dual is built.
    """
    edge_of = _edge_of(m)
    kept = [h for h in range(m.num_half_edges) if mask >> edge_of[h] & 1]
    names = {h: i for i, h in enumerate(kept)}
    sigma = [0] * len(names)
    bare = 0
    for cyc in m.vertices():
        ends = [names[h] for h in cyc if h in names]
        bare += not ends
        for a, b in zip(ends, ends[1:] + ends[:1]):
            sigma[a] = b
    alpha = [names[m.alpha[h]] for h in kept]
    return CombinatorialMap(sigma, alpha).counts()[2] + bare


class TestValidation:
    def test_single_edge_between_two_vertices(self):
        m = CombinatorialMap((0, 1), (1, 0))
        assert m.counts() == (2, 1, 1, 1)
        assert m.genus() == 0

    def test_fixed_point_rejected(self):
        with pytest.raises(FixedPointError):
            CombinatorialMap((0, 1, 2, 3), (1, 0, 2, 3))

    def test_non_involution_rejected(self):
        with pytest.raises(NotInvolutionError):
            CombinatorialMap((0, 1, 2, 3), (1, 2, 3, 0))

    def test_size_mismatch_rejected(self):
        with pytest.raises(SizeMismatchError):
            CombinatorialMap((0, 1), (1, 0, 3, 2))
        with pytest.raises(SizeMismatchError, match="even"):
            CombinatorialMap((1, 2, 0), (1, 0, 2))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            CombinatorialMap((0, 0), (1, 0))

    def test_bool_half_edges_are_stored_as_ints(self):
        m = CombinatorialMap([True, False], [True, False])
        plain = CombinatorialMap([1, 0], [1, 0])
        assert m == plain
        assert repr(m) == repr(plain) == "CombinatorialMap(sigma='(0 1)', alpha='(0 1)')"
        assert m.edges == plain.edges == ((0, 1),)
        assert all(type(h) is int for h in m.sigma + m.alpha + m.edges[0])
        with pytest.raises(ValueError, match="sigma is not a permutation"):
            CombinatorialMap([1.0, 0], [1, 0])


class TestCounts:
    def test_interlaced_pair_is_torus(self):
        m = interlaced_pair()
        assert m.counts() == (1, 2, 1, 1)
        assert m.genus() == 1

    def test_three_loop_chain(self):
        m = three_loop_chain()
        assert m.counts() == (1, 3, 2, 1)
        assert m.genus() == 1

    def test_two_disjoint_loops(self):
        # hand-traced: each loop is a planar annulus, two components
        m = CombinatorialMap((1, 0, 3, 2), (1, 0, 3, 2))
        v, e, f, c = m.counts()
        assert (v, e, c) == (2, 2, 2)
        assert f == 4
        assert m.genus() == 0

    def test_trees_have_genus_zero(self):
        # path with 3 edges: vertices (0), (1 2), (3 4), (5)
        m = CombinatorialMap((0, 2, 1, 4, 3, 5), (1, 0, 3, 2, 5, 4))
        v, e, f, c = m.counts()
        assert (v, e, f, c) == (4, 3, 1, 1)
        assert m.genus() == 0


class TestPartialDual:
    def test_empty_subset_is_identity(self):
        m = three_loop_chain()
        assert m.partial_dual(0) == m

    def test_chain_dual_at_middle_loop_is_planar(self):
        m = three_loop_chain()
        dual = m.partial_dual([1])
        assert dual.counts()[0] == 2
        assert dual.genus() == 0

    def test_full_dual_of_interlaced_pair_self_dual(self):
        m = interlaced_pair()
        dual = m.partial_dual((1 << m.num_edges) - 1)
        v, e, f, c = dual.counts()
        assert (v, e, f) == (1, 2, 1)
        assert dual.genus() == 1

    def test_euler_dual_swaps_v_and_f(self):
        for d in enumerate_diagrams(3):
            m = d.to_map()
            v, e, f, c = m.counts()
            dual = m.partial_dual((1 << m.num_edges) - 1)
            dv, de, df, dc = dual.counts()
            assert (dv, de, df, dc) == (f, e, v, c)
            assert m.genus() == dual.genus()

    def test_euler_dual_of_trees(self):
        # brute force over the path maps with e <= 3 edges
        paths = {
            1: CombinatorialMap((0, 1), (1, 0)),
            2: CombinatorialMap((0, 2, 1, 3), (1, 0, 3, 2)),
            3: CombinatorialMap((0, 2, 1, 4, 3, 5), (1, 0, 3, 2, 5, 4)),
        }
        for e, m in paths.items():
            dual = m.partial_dual((1 << m.num_edges) - 1)
            assert dual.counts() == (1, e, e + 1, 1)
            assert dual.genus() == 0

    def test_out_of_range_subset(self):
        m = interlaced_pair()
        with pytest.raises(EdgeOutOfRangeError):
            m.partial_dual(1 << 2)
        with pytest.raises(EdgeOutOfRangeError):
            m.partial_dual([2])

    def test_involution_and_symmetric_difference_exhaustive(self):
        for n in (1, 2, 3):
            for d in enumerate_diagrams(n):
                m = d.to_map()
                e = m.num_edges
                for a in range(1 << e):
                    da = m.partial_dual(a)
                    assert are_isomorphic(da.partial_dual(a), m)
                    assert da.partial_dual(a) == m
                    for b in range(1 << e):
                        assert are_isomorphic(
                            da.partial_dual(b), m.partial_dual(a ^ b)
                        )
                        assert da.partial_dual(b) == m.partial_dual(a ^ b)

    def test_preserves_e_and_c(self):
        rng = random.Random(2)
        for _ in range(50):
            m = random_map(rng, rng.randrange(1, 6))
            mask = rng.randrange(1 << m.num_edges)
            dual = m.partial_dual(mask)
            assert dual.num_edges == m.num_edges
            assert len(dual.connected_components()) == len(m.connected_components())


class TestSpanningBoundaryCount:
    def test_full_subset_counts_faces(self):
        for d in enumerate_diagrams(3):
            m = d.to_map()
            full = (1 << m.num_edges) - 1
            assert m.spanning_boundary_count(full) == m.counts()[2]

    def test_empty_subset_counts_vertices(self):
        m = three_loop_chain()
        assert m.spanning_boundary_count(0) == 1

    def test_one_loop_on_a_disc_is_an_annulus(self):
        # orbit trace: an untwisted loop on a vertex disc has two boundary circles
        m = interlaced_pair()
        assert m.spanning_boundary_count([0]) == 2

    def test_matches_dual_vertex_count(self):
        rng = random.Random(3)
        for _ in range(60):
            m = random_map(rng, rng.randrange(1, 6))
            mask = rng.randrange(1 << m.num_edges)
            assert m.spanning_boundary_count(mask) == m.partial_dual(mask).counts()[0]

    def test_every_mask_of_one_map_object(self):
        # one object answers every mask in turn, so stale per-map walk data shows
        rng = random.Random(11)
        bare_vertices = 0
        for num_edges in (1, 2, 3, 4, 5, 6):
            for _ in range(4):
                m = random_map(rng, num_edges)
                edge_of = _edge_of(m)
                for mask in range(1 << num_edges):
                    expected = m.partial_dual(mask).counts()[0]
                    edges = [i for i in range(num_edges) if mask >> i & 1]
                    assert m.spanning_boundary_count(mask) == expected
                    assert m.spanning_boundary_count(edges) == expected
                    assert _spanning_subgraph_boundaries(m, mask) == expected
                    bare_vertices += sum(
                        1 for cyc in m.vertices() if not {edge_of[h] for h in cyc} & set(edges)
                    )
        assert bare_vertices > 0


class TestFastGenusPath:
    def test_agrees_with_explicit_construction_exhaustively(self):
        for n in range(1, 5):
            for d in enumerate_diagrams(n):
                m = d.to_map()
                for mask in range(1 << m.num_edges):
                    assert m.genus_of_partial_dual(mask) == m.partial_dual(mask).genus()

    def test_empty_subset_gives_own_genus(self):
        m = three_loop_chain()
        assert m.genus_of_partial_dual(0) == m.genus()

    def test_chain_at_middle_loop(self):
        assert three_loop_chain().genus_of_partial_dual([1]) == 0

    def test_both_ends_of_an_edge_share_one_bit(self):
        # 80 edges: bits above 1 << 8 are not CPython's cached small ints
        m = random_map(random.Random(3), 80)
        edge_of = _edge_of(m)
        for h, bit in enumerate(m._edge_bits):
            assert bit == 1 << edge_of[h]
            assert bit is m._edge_bits[m.alpha[h]]

    @pytest.mark.parametrize("subset", [-1, 8, [3]])
    def test_subset_outside_the_map_rejected(self, subset):
        m = three_loop_chain()
        with pytest.raises(EdgeOutOfRangeError):
            m.genus_of_partial_dual(subset)
        with pytest.raises(EdgeOutOfRangeError):
            m.spanning_boundary_count(subset)


class TestSlide:
    def test_chain_slides_to_triangle(self):
        m = three_loop_chain()
        slid = m.slide(0, 1)
        assert ChordDiagram.from_map(slid) == ChordDiagram.parse("1 2 3 1 2 3")
        assert slid.genus() == m.genus()

    def test_slide_then_slide_back(self):
        m = three_loop_chain()
        slid = m.slide(0, 1)
        assert slid.slide(0, 1) == m

    def test_not_adjacent_rejected(self):
        m = ChordDiagram.parse("1 1 2 2 3 3").to_map()
        with pytest.raises(NotAdjacentError):
            m.slide(0, 1)  # half-edge 0 neighbors its own chord and chord 3 only

    def test_cannot_slide_along_own_edge(self):
        m = interlaced_pair()
        with pytest.raises(NotAdjacentError):
            m.slide(0, 0)

    def test_half_edge_or_edge_out_of_range_rejected(self):
        m = interlaced_pair()
        for moving in (-1, 4):
            with pytest.raises(NotAdjacentError, match="out of range"):
                m.slide(moving, 1)
        for along in (-1, 2):
            with pytest.raises(EdgeOutOfRangeError):
                m.slide(0, along)

    def test_hash_and_repr(self):
        m = interlaced_pair()
        same = CombinatorialMap(list(m.sigma), list(m.alpha))
        assert same is not m and same == m and hash(same) == hash(m)
        assert repr(m) == "CombinatorialMap(sigma='(0 1 2 3)', alpha='(0 2)(1 3)')"

    def test_genus_and_boundary_preserved_randomized(self):
        rng = random.Random(7)
        done = 0
        while done < 1000:
            m = random_map(rng, rng.randrange(2, 7))
            moves = []
            edge_of = _edge_of(m)
            inv = [0] * m.num_half_edges
            for h, img in enumerate(m.sigma):
                inv[img] = h
            for h in range(m.num_half_edges):
                for k in (m.sigma[h], inv[h]):
                    edge = edge_of[k]
                    if h not in m.edges[edge] and k != h:
                        moves.append((h, edge))
            if not moves:
                continue
            h, edge = rng.choice(moves)
            slid = m.slide(h, edge)
            assert slid.genus() == m.genus()
            assert slid.counts()[2] == m.counts()[2]
            done += 1


class TestTextFormat:
    def test_round_trip(self):
        m = three_loop_chain()
        text = f"sigma: {format_cycles(m.sigma)}\nalpha: {format_cycles(m.alpha)}\n"
        assert CombinatorialMap.from_text(text) == m

    def test_explicit_example(self):
        m = CombinatorialMap.from_text("sigma: (0 1 2 3)\nalpha: (0 2)(1 3)\n")
        assert m == interlaced_pair()

    def test_commas_allowed(self):
        m = CombinatorialMap.from_text("sigma: (0,1)\nalpha: (0,1)")
        assert m.counts() == (1, 1, 2, 1)

    def test_missing_line_rejected(self):
        with pytest.raises(ValueError):
            CombinatorialMap.from_text("sigma: (0 1)")

    def test_bad_cycles_rejected(self):
        with pytest.raises(ValueError):
            CombinatorialMap.from_text("sigma: (0 1\nalpha: (0 1)")
        with pytest.raises(ValueError):
            CombinatorialMap.from_text("sigma: (0 1)(1 0)\nalpha: (0 1)")
        with pytest.raises(FixedPointError, match="alpha fixes one"):
            CombinatorialMap.from_text("sigma: (0 1 2)\nalpha: (0 1)")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("sigma: (0 1 2 3)\nalpha: (0 2)(1 3)\nsigma: (0 1)(2 3)", "line 3 is a second sigma"),
            ("alpha: (0 1)\nsigma: (0 1)\n ALPHA: (0 1)", "line 3 is a second alpha"),
            ("sigma: (0 1)\n\nalpah: (0 1)\nalpha: (0 1)", "line 3 is not a sigma or alpha"),
            ("sigma: (0 1)\nalpha: (0 1)\n(0 1)", "line 3 is not a sigma or alpha"),
        ],
    )
    def test_repeated_or_unknown_line_rejected(self, text, line):
        with pytest.raises(ValueError, match=line):
            CombinatorialMap.from_text(text)

    def test_blank_and_comment_lines_skipped(self):
        text = "# the interlaced pair\n\n  Sigma: (0 1 2 3)\n   # torus\nALPHA: (0 2)(1 3)\n\n"
        assert CombinatorialMap.from_text(text) == interlaced_pair()

    def test_format_cycles(self):
        assert format_cycles((1, 0, 3, 2)) == "(0 1)(2 3)"


class TestIsomorphism:
    def test_relabelling_is_isomorphic(self):
        m = three_loop_chain()
        relabel = [3, 4, 5, 0, 1, 2]
        sigma = [0] * 6
        alpha = [0] * 6
        for h in range(6):
            sigma[relabel[h]] = relabel[m.sigma[h]]
            alpha[relabel[h]] = relabel[m.alpha[h]]
        assert are_isomorphic(m, CombinatorialMap(sigma, alpha))

    def test_distinguishes_diagrams(self):
        a = ChordDiagram.parse("1 1 2 2 3 3").to_map()
        b = ChordDiagram.parse("1 1 2 3 3 2").to_map()
        assert not are_isomorphic(a, b)

    def test_disconnected_component_matching(self):
        loop = CombinatorialMap((1, 0), (1, 0))
        two_loops = CombinatorialMap((1, 0, 3, 2), (1, 0, 3, 2))
        pair = interlaced_pair()
        mixed1 = _disjoint_union(loop, pair)
        mixed2 = _disjoint_union(pair, loop)
        assert are_isomorphic(mixed1, mixed2)
        assert not are_isomorphic(mixed1, two_loops)
        assert not are_isomorphic(mixed1, _disjoint_union(loop, loop))


def _disjoint_union(m1, m2):
    k = m1.num_half_edges
    sigma = list(m1.sigma) + [x + k for x in m2.sigma]
    alpha = list(m1.alpha) + [x + k for x in m2.alpha]
    return CombinatorialMap(sigma, alpha)


def _relabelled(m, p):
    """The map with half-edge h renamed p[h]."""
    sigma = [0] * m.num_half_edges
    alpha = [0] * m.num_half_edges
    for h in range(m.num_half_edges):
        sigma[p[h]] = p[m.sigma[h]]
        alpha[p[h]] = p[m.alpha[h]]
    return CombinatorialMap(sigma, alpha)


def _all_maps(num_half_edges):
    """Every map on ``num_half_edges`` half-edges: all rotations times all pairings."""
    perms = list(itertools.permutations(range(num_half_edges)))
    for alpha in perms:
        if all(alpha[h] != h and alpha[alpha[h]] == h for h in range(num_half_edges)):
            for sigma in perms:
                yield CombinatorialMap(sigma, alpha)


def _brute_force_isomorphic(m1, m2):
    """Whether some permutation p has p∘σ = σ'∘p and p∘α = α'∘p."""
    if m1.num_half_edges != m2.num_half_edges:
        return False
    ground = range(m1.num_half_edges)
    return any(
        all(p[m1.sigma[h]] == m2.sigma[p[h]] and p[m1.alpha[h]] == m2.alpha[p[h]] for h in ground)
        for p in itertools.permutations(ground)
    )


def _canonical_code(m):
    """A value two maps share exactly when they are isomorphic.

    sigma and alpha act transitively on a connected component, so naming
    one start half-edge 0 names every other one by discovery order, and a
    rooted map has no nontrivial automorphism (Tutte, 1963).  A start's
    code is sigma and alpha rewritten in those names; a component's code
    is the least over its starts, and the map's the sorted tuple of its
    components' codes.
    """
    sigma, alpha = m.sigma, m.alpha
    codes = []
    for comp in m.connected_components():
        rooted = []
        for start in comp:
            names = _discover(sigma, alpha, start)
            rooted.append((
                tuple([names[sigma[h]] for h in names]),
                tuple([names[alpha[h]] for h in names]),
            ))
        codes.append(min(rooted))
    return tuple(sorted(codes))


def are_isomorphic(m1, m2):
    """Whether two maps differ only by a relabelling of half-edges."""
    return m1.num_half_edges == m2.num_half_edges and _canonical_code(m1) == _canonical_code(m2)


class TestCanonicalCode:
    def test_every_pair_of_small_maps_against_brute_force(self):
        maps = [m for size in (0, 2, 4) for m in _all_maps(size)]
        assert len(maps) == 1 + 2 + 72
        isomorphic_pairs = 0
        for m1 in maps:
            for m2 in maps:
                expected = _brute_force_isomorphic(m1, m2)
                assert are_isomorphic(m1, m2) == expected, (m1, m2)
                isomorphic_pairs += expected
        assert len(maps) < isomorphic_pairs < len(maps) ** 2

    def test_random_six_half_edge_pairs_against_brute_force(self):
        rng = random.Random(41)
        outcomes = []
        for _ in range(240):
            m1 = random_map(rng, 3)
            # a relabelled copy, a relabelled partial dual (same e and c) or any map
            m2 = rng.choice([m1, m1.partial_dual(rng.randrange(8)), random_map(rng, 3)])
            m2 = _relabelled(m2, rng.sample(range(6), 6))
            expected = _brute_force_isomorphic(m1, m2)
            assert are_isomorphic(m1, m2) == expected, (m1, m2)
            outcomes.append(expected)
        assert 60 < sum(outcomes) < 180

    def test_relabelled_copy_has_the_same_code(self):
        rng = random.Random(43)
        loop = CombinatorialMap((1, 0), (1, 0))
        for _ in range(300):
            m = random_map(rng, rng.randrange(0, 7))
            if rng.random() < 0.3:
                m = _disjoint_union(m, rng.choice([loop, interlaced_pair(), m]))
            p = rng.sample(range(m.num_half_edges), m.num_half_edges)
            assert _canonical_code(_relabelled(m, p)) == _canonical_code(m)

    @pytest.mark.slow
    def test_census_of_maps_up_to_six_half_edges(self):
        # brute force: the least relabelling of each map over all permutations
        for size, num_maps, num_classes in ((2, 2, 2), (4, 72, 8), (6, 10800, 34)):
            inverses = [
                (p, tuple(sorted(range(size), key=p.__getitem__)))
                for p in itertools.permutations(range(size))
            ]
            by_code, by_brute_force = {}, {}
            maps = list(_all_maps(size))
            for m in maps:
                least = min(
                    (
                        tuple([p[m.sigma[q[h]]] for h in range(size)]),
                        tuple([p[m.alpha[q[h]]] for h in range(size)]),
                    )
                    for p, q in inverses
                )
                code = _canonical_code(m)
                by_code.setdefault(code, set()).add(least)
                by_brute_force.setdefault(least, set()).add(code)
            assert len(maps) == num_maps
            assert len(by_code) == len(by_brute_force) == num_classes
            assert all(len(v) == 1 for v in by_code.values())
            assert all(len(v) == 1 for v in by_brute_force.values())
