"""Chord diagrams as double-occurrence cyclic words.

A diagram of order n is a word of 2n labels around an oriented circle,
each label occurring exactly twice.  Diagrams are compared up to
rotation only (orientation-preserving homeomorphisms of the circle);
admitting reflections would merge distinct diagrams and break the
order-4 census of 18.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import groupby
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .maps import CombinatorialMap


class OddLengthError(ValueError):
    """The word has odd length, so some chord is missing an endpoint."""


class LabelCountError(ValueError):
    """Some label does not occur exactly twice."""


class CutOutOfRangeError(ValueError):
    """A product cut position is not a gap of the circle."""


class UnknownChordError(ValueError):
    """A chord label that does not occur in the diagram."""


class EmptyCaravanError(ValueError):
    """A caravan needs at least one camel."""


class ChordDiagram:
    """A double-occurrence word; equality and hashing use the canonical form."""

    __slots__ = ("word", "_canonical_word")

    def __init__(self, word: Iterable[int]) -> None:
        w = tuple(word)
        if len(w) % 2:
            raise OddLengthError(f"word of odd length {len(w)}")
        counts: dict[int, int] = {}
        for label in w:
            counts[label] = counts.get(label, 0) + 1
        for label, count in counts.items():
            if count != 2:
                raise LabelCountError(f"label {label!r} occurs {count} times, not 2")
        self.word = w
        self._canonical_word: tuple[int, ...] | None = None

    @classmethod
    def parse(cls, text: str) -> ChordDiagram:
        """Parse ``1 2 2 1 3 3`` or the compact per-character form ``abba cc``."""
        tokens = text.split()
        if not tokens:
            return cls(())
        try:
            return cls(int(tok) for tok in tokens)
        except ValueError:
            pass
        return cls(normalize_labels([ch for ch in text if not ch.isspace()]))

    @property
    def order(self) -> int:
        return len(self.word) // 2

    def labels(self) -> tuple[int, ...]:
        """Chord labels in order of first occurrence."""
        seen: dict[int, None] = {}
        for label in self.word:
            seen.setdefault(label)
        return tuple(seen)

    def _canonical_key(self) -> tuple[int, ...]:
        """The canonical word, computed on first use and kept."""
        if self._canonical_word is None:
            self._canonical_word = _least_rotation(self.word)
        return self._canonical_word

    def canonical(self) -> ChordDiagram:
        """Relabel by first occurrence and take the lex-least of all rotations."""
        word = self._canonical_key()
        return self if word == self.word else _canonical_diagram(word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChordDiagram) and self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        return hash(self._canonical_key())

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, ChordDiagram):
            return NotImplemented
        return self._canonical_key() < other._canonical_key()

    def __str__(self) -> str:
        return " ".join(map(str, self.word))

    def __repr__(self) -> str:
        return f"ChordDiagram.parse({str(self)!r})"

    # -- the one-vertex ribbon graph ------------------------------------

    def to_map(self) -> CombinatorialMap:
        """The one-vertex ribbon graph of this diagram.

        Word positions become half-edges, sigma is the full rotation of
        the circle, and alpha pairs the two occurrences of each label.
        Edges are sorted by their first half-edge, the chord's first
        occurrence, so edge i is chord ``labels()[i]``.
        """
        n2 = len(self.word)
        sigma = tuple((i + 1) % n2 for i in range(n2))
        alpha = [0] * n2
        first: dict[int, int] = {}
        for i, label in enumerate(self.word):
            if label in first:
                alpha[first[label]] = i
                alpha[i] = first[label]
            else:
                first[label] = i
        return CombinatorialMap(sigma, alpha)

    @classmethod
    def from_map(cls, m: CombinatorialMap) -> ChordDiagram:
        """The diagram of a one-vertex map: the inverse of ``to_map``.

        The circle is the vertex read from its least half-edge, and each
        half-edge is labelled by its edge, then relabelled by first
        occurrence.
        """
        if len(m.vertices()) != 1:
            raise ValueError(f"map has {len(m.vertices())} vertices, not one")
        edge_of = {h: i for i, edge in enumerate(m.edges) for h in edge}
        return cls(normalize_labels([edge_of[h] for h in m.vertices()[0]]))

    def genus(self) -> int:
        return self.to_map().genus()

    # -- interlacement ----------------------------------------------------

    def interlace_graph(self) -> list[list[int]]:
        """Symmetric 0/1 adjacency: chords interlace iff their endpoints alternate.

        Rows and columns follow ``labels()``, the order of first occurrence.
        """
        masks = _interlace_masks(self.word)
        return [[mask >> j & 1 for j in range(len(masks))] for mask in masks]

    def interlace_sequence(self) -> InterlaceSequence:
        masks = _interlace_masks(self.word)
        degrees = [mask.bit_count() for mask in masks]
        factors = [tuple(sorted(degrees[i] for i in c)) for c in _components(masks)]
        factors.sort(key=lambda f: (len(f), f))
        return InterlaceSequence(tuple(sorted(degrees)), tuple(factors))

    def join_decompose(self) -> list[ChordDiagram]:
        """Maximal factorization as an iterated connected sum.

        A factor occupies a contiguous cyclic arc, and two chords belong
        to the same factor exactly when they are linked by a chain of
        interlacements; so the factors are the connected components of
        the interlace graph, each read off in circle order.  Factors are
        canonical and sorted by order, then word.
        """
        components = list(_components(_interlace_masks(self.word)))
        if len(components) == 1:
            return [self.canonical()]  # prime
        labels = self.labels()  # first-occurrence order, as the masks number chords
        part = {labels[i]: k for k, component in enumerate(components) for i in component}
        subwords: list[list[int]] = [[] for _ in components]
        for label in self.word:
            subwords[part[label]].append(label)
        factors = [_canonical_diagram(_least_rotation(tuple(sub))) for sub in subwords]
        factors.sort(key=lambda d: (d.order, d.word))
        return factors


def _interlace_masks(word: Sequence[Hashable]) -> list[int]:
    """The interlace graph as one bitmask per chord, in first-occurrence order.

    Chord j interlaces chord i exactly when j is open at one of i's two endpoints
    but not the other: ``masks[i]`` XORs the open chords at i's endpoints.
    """
    index: dict[Hashable, int] = {}
    masks: list[int] = []
    open_chords = 0
    for label in word:
        i = index.setdefault(label, len(masks))
        if i == len(masks):
            masks.append(open_chords)
        else:
            masks[i] ^= open_chords ^ 1 << i
        open_chords ^= 1 << i
    return masks


def _components(masks: list[int]) -> Iterator[list[int]]:
    """Connected components of a graph of bitmask rows, each a list of its vertices, by BFS."""
    unseen = (1 << len(masks)) - 1
    while unseen:
        component, frontier = [], unseen & -unseen
        unseen ^= frontier
        while frontier:
            low = frontier & -frontier
            component.append(low.bit_length() - 1)
            new = masks[component[-1]] & unseen
            unseen ^= new
            frontier ^= low | new
        yield component


def normalize_labels(word: Iterable[Hashable]) -> tuple[int, ...]:
    """Relabel a word by first occurrence: 1, 2, 3, ... in reading order."""
    relabel: dict[Hashable, int] = {}
    return tuple([relabel.setdefault(label, len(relabel) + 1) for label in word])


def _least_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    """The least first-occurrence-normalized rotation of a word, one rotation held at a time.

    The normalized rotation from start s reads 1, 2, 3, ... until its first
    closing letter, which is less than the next new label; so a rotation
    that closes a chord earlier is lesser.  With ``ahead[q]`` the distance
    forward from position q to its partner, a rotation from s closes no
    earlier than ``min(ahead)`` letters in, and exactly then when
    ``ahead[s]`` is that minimum: a chord that closed earlier would itself
    be shorter.  Only those starts are normalized in full.  The cost is
    linear in the word plus one normalization per such start, so words
    with many equally short chords, such as runs of interlaced pairs, stay
    quadratic.
    """
    size = len(word)
    first: dict[Hashable, int] = {}
    ahead = [0] * size
    for q, label in enumerate(word):
        p = first.setdefault(label, q)
        if p != q:
            ahead[p], ahead[q] = q - p, size - (q - p)
    shortest = min(ahead, default=0)
    if 2 * shortest == size:  # the word is w + w: every rotation normalizes to 1..n 1..n
        return normalize_labels(word)
    starts = (s for s, distance in enumerate(ahead) if distance == shortest)
    return min((normalize_labels(word[s:] + word[:s]) for s in starts), default=())


def _canonical_diagram(word: tuple[int, ...]) -> ChordDiagram:
    """A diagram whose word is known to be canonical, so valid: built without the checks."""
    diagram = ChordDiagram.__new__(ChordDiagram)
    diagram.word = diagram._canonical_word = word
    return diagram


class InterlaceSequence(NamedTuple):
    """Sorted per-chord interlacement counts, with the join factorization."""

    counts: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        if len(self.factors) <= 1:
            return "(" + ",".join(map(str, self.counts)) + ")"
        return "∨".join("(" + ",".join(map(str, f)) + ")" for f in self.factors)


def partial_dual_diagram(diagram: ChordDiagram, chords: Iterable[int]) -> CombinatorialMap:
    """Partial dual of a one-vertex diagram relative to the chords with these labels.

    The dual is a ribbon graph with one vertex per circle: its
    ``vertices()`` are the circles, each in circle order from its least
    half-edge.  Partial duality keeps alpha, so edge i of the dual is
    still chord ``diagram.labels()[i]``.
    """
    chord_set = set(chords)
    labels = diagram.labels()
    unknown = chord_set - set(labels)
    if unknown:
        raise UnknownChordError(f"no chord labelled {sorted(unknown)!r}")
    mask = sum(1 << i for i, label in enumerate(labels) if label in chord_set)
    return diagram.to_map().partial_dual(mask)


def product(
    d1: ChordDiagram, d2: ChordDiagram, cut1: int = 0, cut2: int = 0
) -> ChordDiagram:
    """Connected sum: cut both circles open and glue them into one.

    ``cut`` positions index the gaps between consecutive endpoints,
    0..2n (gap 2n coincides with gap 0).
    """
    for cut, d in ((cut1, d1), (cut2, d2)):
        if not 0 <= cut <= len(d.word):
            raise CutOutOfRangeError(f"cut {cut} outside gaps 0..{len(d.word)}")
    cut1 %= max(len(d1.word), 1)
    cut2 %= max(len(d2.word), 1)
    offset = max(d1.word, default=0)
    spliced = tuple([offset + x for x in normalize_labels(d2.word[cut2:] + d2.word[:cut2])])
    return ChordDiagram(d1.word[:cut1] + spliced + d1.word[cut1:])


def caravan(k: int, g: int) -> ChordDiagram:
    """The product of k single chords and g interlaced pairs.

    Its surface has genus g and k+1 boundary components; by the
    classification of surfaces every diagram matches the caravan built
    from its own (boundary count - 1, genus).
    """
    if k < 0 or g < 0 or k + g < 1:
        raise EmptyCaravanError("a caravan needs k >= 0, g >= 0, k + g >= 1")
    word: list[int] = []
    label = 1
    for _ in range(k):
        word += [label, label]
        label += 1
    for _ in range(g):
        word += [label, label + 1, label, label + 1]
        label += 2
    return ChordDiagram(word)


@lru_cache(maxsize=None)
def _numbering(n: int) -> dict[tuple[int, ...], int]:
    """The number of every normalized word of order n, keyed with its labels raised by one.

    Deleting both ends of chord 1 from a normalized word of order n and
    lowering the other labels by one leaves a normalized word of order
    n - 1, and every such word arises.  So word ``k * (2n - 1) + j`` is
    skeleton k of order n - 1, raised by one, with chord 1 at position 0
    and its second end in gap j.
    """
    if n == 0:
        return {(): 0}
    words = ((1,) + s[:j] + (1,) + s[j:] for s in _numbering(n - 1) for j in range(2 * n - 1))
    return {tuple([label + 1 for label in word]): k for k, word in enumerate(words)}


def _number(r: tuple[int, ...]) -> int:
    """The number of a normalized word r: skeleton ``r[1:j] + r[j+1:]`` and gap j - 1."""
    n = len(r) // 2
    j = r.index(1, 1)
    return _numbering(n - 1)[r[1:j] + r[j + 1 :]] * (2 * n - 1) + j - 1


def _rotation(n: int) -> array:
    """The one-step rotation on word numbers of order n: word x with its first letter moved last.

    Word x = k * w + j, with w = 2n - 1, is skeleton k with chord 1 in gap
    j.  For j = 0 the rotation is skeleton k with chord 1 in the last gap,
    k * w + w - 1.  Otherwise the rotated word starts with the skeleton's
    first chord, the new chord 1; write k = k2 * w' + j2, with w' = 2n - 3,
    for that chord's own skeleton and gap.  Deleting it leaves the rotation
    of order-(n - 1) word k2 * w' + j - 1 if j <= j2 + 1, with the new chord
    1 in gap j2 + 1, or else of word k2 * w' + j - 2, with it in gap j2.
    """
    if n <= 1:
        return array("l", [0])  # the one word of order 0 or 1
    below = _rotation(n - 1)
    w, w2 = 2 * n - 1, 2 * n - 3
    # Allocated once at full size: grown by extend, the 16 MB array of order 8
    # left check_4T(8) 15 MB more peak RSS after it was freed.
    rot = array("l", [0]) * (len(below) * w)
    for k2 in range(len(below) // w2):
        lifted = [r * w for r in below[k2 * w2 : k2 * w2 + w2]]  # rows k2 * w' + j2 share it
        rows: list[int] = []
        for j2 in range(w2):
            rows.append((k2 * w2 + j2) * w + w - 1)
            rows += [r + j2 + 1 for r in lifted[: j2 + 1]]
            rows += [r + j2 for r in lifted[j2:]]
        rot[k2 * w2 * w : (k2 + 1) * w2 * w] = array("l", rows)
    return rot


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The class id of every word number of order n and the canonical word of each id.

    The classes are the cycles of ``_rotation(n)``.  Word x = k * (2n - 1) + j
    is chord 1, skeleton k's first j letters, chord 1 again, then the rest
    of the skeleton.  Chord 1 of a least rotation is a shortest chord, as
    ``_least_rotation`` says, so no chord closes between its two ends:
    those letters are the new labels 2, ..., j + 1, and normalized words
    whose chord 1 is shortest compare as (gap j, skeleton).  They are j
    distinct chords other than chord 1, so j <= n - 1.  Numbers of gaps
    below n are visited by gap first, then by skeleton in word order, so
    the first one met without an id is the least member of its class, the
    canonical word.  Its cycle is followed around and every member gets
    the next id, gaps n and above included; ids thus come out in
    canonical-word order, and only the least member is decoded.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        return (0,), ((),)
    width = 2 * n - 1
    skeletons = list(_numbering(n - 1))
    by_word = sorted(range(len(skeletons)), key=skeletons.__getitem__)
    rot = _rotation(n)
    ids = array("l", [-1]) * len(rot)
    canonical: list[tuple[int, ...]] = []
    for j in range(n):
        for k in by_word:
            x = k * width + j
            if ids[x] < 0:
                s = skeletons[k]
                canonical.append((1,) + s[:j] + (1,) + s[j:])
                while ids[x] < 0:
                    ids[x] = len(canonical) - 1
                    x = rot[x]
    del rot  # before the id tuple is built: 16 MB at order 8
    ids_of = list(range(len(canonical)))  # one int object per id, shared by its words
    return tuple(map(ids_of.__getitem__, ids)), tuple(canonical)


def _class_id(word: Sequence[Hashable]) -> int:
    """The class id of a word of any labels and rotation, read at its chord-insertion number."""
    r = normalize_labels(word)
    return _classes(len(r) // 2)[0][_number(r)] if r else 0


def _one_vertex_duals(word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The circle of each one-vertex partial dual of a normalized word, read from position 0.

    For each nonempty set T of chords of even size (bit l - 1 for label l),
    the dual's rotation ``sigma_T``, as ``CombinatorialMap.partial_dual``
    defines it, steps from an end of a chord in T to the position after its
    partner, and from any other position to the next.  Its orbit of
    position 0 is the dual's first vertex; the word is yielded when that
    orbit is all 2n positions.  An odd T never gives one vertex: (V, T) has
    1 vertex, |T| edges and f boundary components, 1 - |T| + f = 2 - 2g by
    Euler's formula, and the dual has f vertices.
    """
    size = len(word)
    bits = [1 << label - 1 for label in word]
    step = [*range(1, size), 0]  # sigma: the next position around the circle
    cross = step[:]  # sigma after alpha: the position after the partner
    first: dict[int, int] = {}
    for q, label in enumerate(word):
        p = first.setdefault(label, q)
        cross[p], cross[q] = step[q], step[p]
    for t in range(1, 1 << size // 2):
        if t.bit_count() & 1:
            continue
        h, circle = 0, []
        while True:
            circle.append(word[h])
            h = cross[h] if t & bits[h] else step[h]
            if not h:
                break
        if len(circle) == size:
            yield tuple(circle)


def _class_sources(n: int) -> tuple[tuple[int, ...], ...]:
    """Where the genus polynomial of each class of order n comes from, by class id.

    The polynomial is multiplicative over connected sums, depends only on
    the interlace graph, which a mirror image shares, and is the same for
    every partial dual, since (G^A)^B = G^(A Δ B) (Chmutov, JCTB 2009).
    Ids are visited in order, and class i gets one source:

    - ``(k1, i1, k2, i2)``: a connected sum, the product of the entries of
      order k1, id i1 (the interlace component of chord 1) and of order
      k2, id i2 (the other chords; for n >= 2, a word ``1 1 ...`` has
      chord 1 isolated, and i2 is read at skeleton ``word[2:]``'s number);
    - ``(j,)`` with j < i: a copy of entry j of this order, a walked class
      that is the mirror image of class i or has class i or its mirror
      image among its one-vertex partial duals;
    - ``()``: class i is walked, and every class that one of its one-vertex
      partial duals reaches and that has no source yet copies it.
    """
    canonical = _classes(n)[1]
    sources: list[tuple[int, ...] | None] = [None] * len(canonical)
    for i, word in enumerate(canonical):
        if sources[i] is not None:
            continue
        if n > 1 and word[1] == 1:
            sources[i] = (1, 0, n - 1, _classes(n - 1)[0][_numbering(n - 1)[word[2:]]])
            continue
        component = next(_components(_interlace_masks(word)), [])
        if len(component) < n:
            bits = sum(1 << c for c in component)
            parts: tuple[list[int], list[int]] = ([], [])
            for label in word:
                parts[bits >> label - 1 & 1].append(label)
            rest, chord1 = parts
            sources[i] = (len(component), _class_id(chord1), n - len(component), _class_id(rest))
            continue
        mirror = _class_id(word[::-1])
        if sources[mirror] is not None:
            sources[i] = sources[mirror] or (mirror,)
            continue
        sources[i] = ()
        for dual in _one_vertex_duals(word):
            j = _class_id(dual)
            if sources[j] is None:
                sources[j] = (i,)
    return tuple(sources)


def generate_4T_quadruples(n: int) -> tuple[int, ...]:
    """Every four-term quadruple of order n, as a sorted tuple of distinct packed ints.

    The four diagrams agree outside one endpoint of the moving chord,
    which sits in the four slots adjacent to the two endpoints of the
    fixed chord: just before the first, just after the first, just before
    the second, just after the second.  Swapping the roles of the fixed
    chord's endpoints permutes the quadruple as (3, 4, 1, 2), which leaves
    the alternating sum unchanged; the lesser variant is kept.  Duplicates
    are removed by class id; id i is the diagram ``enumerate_diagrams(n)[i]``.

    Quadruple (a, b, c, d) of class ids is the int
    ``((a << w | b) << w | c) << w | d``, where w is the bit length of
    ``len(enumerate_diagrams(n))``; so ints compare as their 4-tuples do,
    and ``q >> 3 * w`` and ``q >> k * w & (1 << w) - 1`` for k = 2, 1, 0
    read the ids back.

    Read from the partner of the free endpoint, the circle is chord 1 then
    a skeleton of order n - 1, each once; a fixed chord at skeleton
    positions r < s puts the free endpoint in gaps r, r + 1, s and s + 1
    of the skeleton's row of class ids.  Below order 2 there is no fixed
    chord, so the tuple is empty; a negative order raises ``ValueError``.
    """
    ids, canonical = _classes(n)
    w = len(canonical).bit_length()
    width = 2 * n - 1
    keys: list[int] = []
    for k, skeleton in enumerate(_numbering(n - 1) if n else ()):
        row = ids[k * width : (k + 1) * width]
        first: dict[int, int] = {}
        for s, label in enumerate(skeleton):
            r = first.setdefault(label, s)
            if r != s:
                ab, cd = row[r] << w | row[r + 1], row[s] << w | row[s + 1]
                keys.append(ab << 2 * w | cd if ab <= cd else cd << 2 * w | ab)
    keys.sort()  # duplicates are neighbours: 2 of 945 945 at order 8, so no set
    return tuple(key for key, _ in groupby(keys))


@lru_cache(maxsize=None)
def enumerate_diagrams(n: int) -> tuple[ChordDiagram, ...]:
    """All chord diagrams of order n, canonical and sorted.

    The i-th diagram is the class with id i.  Desk scale is n <= 7.
    """
    return tuple(_canonical_diagram(w) for w in _classes(n)[1])
