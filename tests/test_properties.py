"""Property tests over generated maps and chord diagram words."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from pdgenus.diagrams import ChordDiagram
from pdgenus.maps import CombinatorialMap, _canonical_code
from test_maps import _relabelled

# derandomized, with no example database: every run draws the same examples and writes nothing
deterministic = settings(derandomize=True, database=None)


@st.composite
def maps(draw, max_edges=5):
    """A map on up to ``max_edges`` edges: any rotation, any pairing of the half-edges."""
    n = 2 * draw(st.integers(0, max_edges))
    sigma = draw(st.permutations(range(n)))
    halves = draw(st.permutations(range(n)))
    alpha = [0] * n
    for a, b in zip(halves[0::2], halves[1::2]):
        alpha[a], alpha[b] = b, a
    return CombinatorialMap(sigma, alpha)


@st.composite
def words(draw, max_order=6):
    """A double-occurrence word on the labels 1..n in any order."""
    n = draw(st.integers(0, max_order))
    return draw(st.permutations([label for label in range(1, n + 1) for _ in (0, 1)]))


@st.composite
def maps_and_two_subsets(draw):
    m = draw(maps())
    subsets = st.integers(0, (1 << m.num_edges) - 1)
    return m, draw(subsets), draw(subsets)


@deterministic
@given(maps_and_two_subsets())
def test_partial_duals_compose_by_symmetric_difference(case):
    m, a, b = case
    assert m.partial_dual(a).partial_dual(b) == m.partial_dual(a ^ b)


@deterministic
@given(maps(), st.randoms(use_true_random=False))
def test_canonical_code_ignores_relabelling(m, rng):
    p = rng.sample(range(m.num_half_edges), m.num_half_edges)
    assert _canonical_code(_relabelled(m, p)) == _canonical_code(m)


@deterministic
@given(maps())
def test_map_text_round_trip(m):
    assert CombinatorialMap.from_text(m.to_text()) == m


@deterministic
@given(words())
def test_word_text_round_trip(word):
    d = ChordDiagram(word)
    assert ChordDiagram.parse(str(d)).word == d.word


@deterministic
@given(words())
def test_canonical_form_is_idempotent(word):
    canonical = ChordDiagram(word).canonical()
    assert canonical.is_canonical()
    assert canonical.canonical().word == canonical.word
