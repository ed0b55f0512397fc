"""Property tests over generated maps and chord diagram words."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from pdgenus.cli import main
from pdgenus.diagrams import (
    ChordDiagram,
    LabelCountError,
    OddLengthError,
    normalize_labels,
)
from pdgenus.maps import (
    CombinatorialMap,
    FixedPointError,
    NotInvolutionError,
    format_cycles,
)
from test_maps import _canonical_code, _relabelled

# derandomized, with no example database: every run draws the same examples and writes nothing
deterministic = settings(derandomize=True, database=None)


@st.composite
def maps(draw, min_edges=0, max_edges=5):
    """A map on min_edges to max_edges edges: any rotation, any pairing of the half-edges."""
    n = 2 * draw(st.integers(min_edges, max_edges))
    sigma = draw(st.permutations(range(n)))
    halves = draw(st.permutations(range(n)))
    alpha = [0] * n
    for a, b in zip(halves[0::2], halves[1::2]):
        alpha[a], alpha[b] = b, a
    return CombinatorialMap(sigma, alpha)


@st.composite
def words(draw, min_order=0, max_order=6):
    """A double-occurrence word on the labels 1..n in any order."""
    n = draw(st.integers(min_order, max_order))
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
    assert CombinatorialMap.from_text(_map_text(m.sigma, m.alpha)) == m


@deterministic
@given(words())
def test_word_text_round_trip(word):
    d = ChordDiagram(word)
    assert ChordDiagram.parse(str(d)).word == d.word


@deterministic
@given(words())
def test_canonical_form_is_idempotent(word):
    canonical = ChordDiagram(word).canonical()
    assert canonical.canonical().word == canonical.word


@deterministic
@given(words(min_order=1))
def test_a_one_vertex_map_gives_its_diagram_back(word):
    assert ChordDiagram.from_map(ChordDiagram(word).to_map()).word == normalize_labels(word)


# -- malformed input --------------------------------------------------------

# each example also runs the command line once
malformed = settings(deterministic, max_examples=50)


@st.composite
def odd_length_words(draw):
    length = 2 * draw(st.integers(0, 6)) + 1
    return draw(st.lists(st.integers(0, 9), min_size=length, max_size=length))


@st.composite
def words_with_a_wrong_label_count(draw):
    """A valid word with one position relabelled: some label then occurs once or three times."""
    word = list(draw(words(min_order=1)))
    i = draw(st.integers(0, len(word) - 1))
    word[i] = draw(st.integers(0, len(word)).filter(lambda label: label != word[i]))
    return word


def _map_text(sigma, alpha):
    return f"sigma: {format_cycles(sigma)}\nalpha: {format_cycles(alpha)}\n"


@st.composite
def map_texts_with_a_fixed_point(draw):
    """A map whose alpha fixes both ends of one edge."""
    m = draw(maps(min_edges=1))
    a, b = draw(st.sampled_from(m.edges))
    alpha = list(m.alpha)
    alpha[a], alpha[b] = a, b
    return _map_text(m.sigma, alpha)


@st.composite
def map_texts_with_a_non_involution(draw):
    """A map whose alpha joins two edges (a b), (c d) into the 4-cycle (a c b d)."""
    m = draw(maps(min_edges=2))
    (a, b), (c, d) = draw(st.permutations(m.edges))[:2]
    alpha = list(m.alpha)
    alpha[a], alpha[c], alpha[b], alpha[d] = c, b, d, a
    return _map_text(m.sigma, alpha)


def _assert_cli_rejects(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("pdgenus: error: ")


@pytest.fixture(scope="module")
def map_file(tmp_path_factory):
    return tmp_path_factory.mktemp("maps") / "map.txt"


@malformed
@given(odd_length_words())
def test_odd_length_word_rejected(word):
    with pytest.raises(OddLengthError):
        ChordDiagram(word)
    _assert_cli_rejects("poly", " ".join(map(str, word)))


@malformed
@given(words_with_a_wrong_label_count())
def test_wrong_label_count_rejected(word):
    with pytest.raises(LabelCountError):
        ChordDiagram(word)
    _assert_cli_rejects("poly", " ".join(map(str, word)))


@malformed
@given(map_texts_with_a_fixed_point())
def test_fixed_point_in_alpha_rejected(map_file, text):
    with pytest.raises(FixedPointError):
        CombinatorialMap.from_text(text)
    map_file.write_text(text)
    _assert_cli_rejects("genus", "--map", str(map_file))


@malformed
@given(map_texts_with_a_non_involution())
def test_non_involution_in_alpha_rejected(map_file, text):
    with pytest.raises(NotInvolutionError):
        CombinatorialMap.from_text(text)
    map_file.write_text(text)
    _assert_cli_rejects("genus", "--map", str(map_file))
