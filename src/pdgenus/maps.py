"""Oriented ribbon graphs encoded as permutation pairs on half-edges.

A map carries ``sigma`` (counterclockwise successor around the incident
vertex-disc) and ``alpha`` (fixed-point-free involution pairing the two
ends of each edge-ribbon).  Vertices are the orbits of ``sigma``, edges
the orbits of ``alpha``, and boundary components the orbits of
``sigma∘alpha``; ``alpha∘sigma`` is conjugate to it and gives the same
orbit count.  The rotation-system encoding makes every represented
surface orientable.

All operations are pure: they return new maps and never mutate shared
state, so callers may fan out over subsets or maps in parallel.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

EdgeSubset = int  # bitmask over edge indices; bit i set iff edge i is in the subset


class SizeMismatchError(ValueError):
    """The two permutations do not act on the same even-sized ground set."""


class NotInvolutionError(ValueError):
    """alpha∘alpha is not the identity."""


class FixedPointError(ValueError):
    """alpha fixes a half-edge; every edge needs two distinct ends."""


class EdgeOutOfRangeError(ValueError):
    """An edge subset refers to an edge index outside the map."""


class NotAdjacentError(ValueError):
    """The half-edge to slide is not sigma-adjacent to an end of the target edge."""


def _check_permutation(perm: Sequence[int], name: str) -> None:
    n = len(perm)
    seen = [False] * n
    for x in perm:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            raise ValueError(f"{name} is not a permutation of 0..{n - 1}")
        seen[x] = True


def _cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a permutation, each starting at its minimum, sorted by minimum."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        h = start
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = perm[h]
        out.append(tuple(cyc))
    return tuple(out)


class CombinatorialMap:
    """An oriented ribbon graph on the half-edge set ``0..2e-1``."""

    __slots__ = (
        "sigma", "alpha", "edge_labels", "edges", "_edge_of", "_vertices", "_components", "_walk"
    )

    def __init__(
        self,
        sigma: Iterable[int],
        alpha: Iterable[int],
        edge_labels: Sequence | None = None,
    ) -> None:
        sigma = tuple(sigma)
        alpha = tuple(alpha)
        if len(sigma) != len(alpha):
            raise SizeMismatchError(
                f"sigma acts on {len(sigma)} half-edges, alpha on {len(alpha)}"
            )
        if len(sigma) % 2:
            raise SizeMismatchError("the number of half-edges must be even")
        _check_permutation(sigma, "sigma")
        _check_permutation(alpha, "alpha")
        for h, image in enumerate(alpha):
            if image == h:
                raise FixedPointError(f"alpha fixes half-edge {h}")
            if alpha[image] != h:
                raise NotInvolutionError(f"alpha is not an involution at half-edge {h}")
        self.sigma = sigma
        self.alpha = alpha
        # Edges in deterministic order: sorted by their minimal half-edge.
        self.edges = tuple(
            (h, alpha[h]) for h in range(len(alpha)) if h < alpha[h]
        )
        edge_of = [0] * len(alpha)
        for i, (a, b) in enumerate(self.edges):
            edge_of[a] = edge_of[b] = i
        self._edge_of = tuple(edge_of)
        if edge_labels is not None:
            edge_labels = tuple(edge_labels)
            if len(edge_labels) != len(self.edges):
                raise SizeMismatchError("one label per edge is required")
        self.edge_labels = edge_labels
        self._vertices: tuple[tuple[int, ...], ...] | None = None
        self._components: tuple[tuple[int, ...], ...] | None = None
        self._walk: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None = None

    # -- basic counting -------------------------------------------------

    @property
    def num_half_edges(self) -> int:
        return len(self.sigma)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, half_edge: int) -> int:
        """The edge (alpha-orbit) index a half-edge belongs to."""
        return self._edge_of[half_edge]

    def vertices(self) -> tuple[tuple[int, ...], ...]:
        if self._vertices is None:
            self._vertices = _cycles(self.sigma)
        return self._vertices

    def boundary_components(self) -> tuple[tuple[int, ...], ...]:
        comp = tuple(self.sigma[a] for a in self.alpha)
        return _cycles(comp)

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the group generated by sigma and alpha, sorted by minimum."""
        if self._components is None:
            self._components = self._find_components()
        return self._components

    def _find_components(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.sigma)
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                h = stack.pop()
                comp.append(h)
                for img in (self.sigma[h], self.alpha[h]):
                    if not seen[img]:
                        seen[img] = True
                        stack.append(img)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def counts(self) -> tuple[int, int, int, int]:
        """(v, e, f, c): vertices, edges, boundary components, connected components."""
        v = len(self.vertices())
        f = len(self.boundary_components())
        return (v, len(self.edges), f, len(self.connected_components()))

    def genus(self) -> int:
        """Total genus, summed over connected components.

        Per component, 2 - 2g = v - e + f; the total is c - (v - e + f)/2.
        The parity assertion cannot fire for a validated orientable map.
        """
        v, e, f, c = self.counts()
        double = 2 * c - (v - e + f)
        assert double % 2 == 0 and double >= 0, "odd or negative Euler defect"
        return double // 2

    # -- partial duality ------------------------------------------------

    def subset_mask(self, subset: EdgeSubset | Iterable[int]) -> int:
        """Normalize an edge subset (bitmask or iterable of indices) to a bitmask."""
        e = len(self.edges)
        if isinstance(subset, int):
            if subset < 0 or subset >> e:
                raise EdgeOutOfRangeError(f"subset {subset:#x} exceeds {e} edges")
            return subset
        mask = 0
        for i in subset:
            if not 0 <= i < e:
                raise EdgeOutOfRangeError(f"edge index {i} out of range 0..{e - 1}")
            mask |= 1 << i
        return mask

    def partial_dual(self, subset: EdgeSubset | Iterable[int]) -> CombinatorialMap:
        """The partial dual relative to an edge subset A.

        The new vertex rotation is read off the boundary walk of the
        spanning subgraph (V, A): from half-edge h the walk crosses the
        edge-ribbon when h lies in A (continuing at sigma[alpha[h]]) and
        merely passes the attachment point otherwise (continuing at
        sigma[h]).  The walk successor is itself a permutation and is the
        rotation of the dual; alpha is unchanged.  Whole-subset in one
        pass; the single-edge decomposition is equivalent and kept as a
        cross-check in the tests.
        """
        mask = self.subset_mask(subset)
        sigma, alpha, edge_of = self.sigma, self.alpha, self._edge_of
        new_sigma = tuple(
            sigma[alpha[h]] if mask >> edge_of[h] & 1 else sigma[h]
            for h in range(len(sigma))
        )
        return CombinatorialMap(new_sigma, alpha, self.edge_labels)

    def euler_dual(self) -> CombinatorialMap:
        """Classical duality: the partial dual relative to all edges."""
        return self.partial_dual((1 << len(self.edges)) - 1)

    def spanning_boundary_count(self, subset: EdgeSubset | Iterable[int]) -> int:
        """Number of boundary components of the spanning subgraph (V, A).

        Traces the boundary restricted to half-edges of A; a vertex with
        no A-half-edge is an isolated disc and counts as one boundary
        circle.  Equals v(partial_dual(A)) but is computed independently.
        """
        mask = self.subset_mask(subset)
        sigma = self.sigma
        step, bits, vertex_masks = self._walk_data()
        seen = [False] * len(sigma)
        count = 0
        for start, bit in enumerate(bits):
            if seen[start] or not mask & bit:
                continue
            count += 1
            h = start
            while not seen[h]:
                seen[h] = True
                h = step[h]
                while not mask & bits[h]:
                    h = sigma[h]
        return count + sum(1 for vertex_mask in vertex_masks if not mask & vertex_mask)

    def _walk_data(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """``sigma∘alpha``, the edge bit of each half-edge and the edge mask of each vertex."""
        if self._walk is None:
            bits = tuple(1 << edge for edge in self._edge_of)
            # the sum of a vertex's distinct edge bits is their union
            vertex_masks = tuple(sum({bits[h] for h in cyc}) for cyc in self.vertices())
            self._walk = (tuple(self.sigma[a] for a in self.alpha), bits, vertex_masks)
        return self._walk

    def genus_of_partial_dual(
        self,
        subset: EdgeSubset | Iterable[int],
        boundary_counts: Sequence[int] | None = None,
    ) -> int:
        """Genus of the partial dual without constructing it.

        Uses v(G^A) = bc(A) and f(G^A) = bc(complement of A) together with
        the invariance of e and c under partial duality.  A caller that
        needs every subset passes ``boundary_counts``, the value of
        ``spanning_boundary_count`` for every mask, and the two walks
        become lookups; a bitmask is then checked against the table alone,
        which must have ``1 << e`` entries.  Exhaustive agreement with the
        explicit construction is enforced by the test suite before
        anything relies on this path.
        """
        e = len(self.edges)
        full = (1 << e) - 1
        if boundary_counts is None:
            mask = self.subset_mask(subset)
            v = self.spanning_boundary_count(mask)
            f = self.spanning_boundary_count(full ^ mask)
        else:
            mask = subset if isinstance(subset, int) else self.subset_mask(subset)
            if not 0 <= mask < len(boundary_counts) == 1 << e:
                raise EdgeOutOfRangeError(
                    f"subset {mask:#x} outside a table of {len(boundary_counts)} "
                    f"boundary counts for {e} edges"
                )
            v, f = boundary_counts[mask], boundary_counts[full ^ mask]
        double = 2 * len(self.connected_components()) - (v - e + f)
        assert double % 2 == 0 and double >= 0, "odd or negative Euler defect"
        return double // 2

    # -- edge slides ----------------------------------------------------

    def slide(self, moving: int, along_edge: int) -> CombinatorialMap:
        """Slide the attachment ``moving`` along the edge ``along_edge``.

        The moving half-edge must be sigma-adjacent to an end k of the
        edge; its attachment is transported along the ribbon to the other
        end alpha(k).  A half-edge sitting just before k re-attaches just
        after alpha(k) and vice versa, which keeps the surface (hence
        genus and boundary count) unchanged.  When both adjacency cases
        apply the successor case wins; sliding back then needs the
        matching inverse move.
        """
        if not 0 <= moving < len(self.sigma):
            raise NotAdjacentError(f"half-edge {moving} out of range")
        if not 0 <= along_edge < len(self.edges):
            raise EdgeOutOfRangeError(f"edge index {along_edge} out of range")
        ends = self.edges[along_edge]
        if moving in ends:
            raise NotAdjacentError("cannot slide an edge along itself")
        inv = [0] * len(self.sigma)
        for h, img in enumerate(self.sigma):
            inv[img] = h
        new_sigma = list(self.sigma)
        if self.sigma[moving] in ends:
            k = self.sigma[moving]
            target = self.alpha[k]
            new_sigma[inv[moving]] = new_sigma[moving]  # unhook
            new_sigma[moving] = new_sigma[target]       # re-attach after alpha(k)
            new_sigma[target] = moving
        elif inv[moving] in ends:
            k = inv[moving]
            target = self.alpha[k]
            new_sigma[inv[moving]] = new_sigma[moving]
            pred = inv[target] if inv[target] != moving else inv[moving]
            new_sigma[pred] = moving                    # re-attach before alpha(k)
            new_sigma[moving] = target
        else:
            raise NotAdjacentError(
                f"half-edge {moving} is not sigma-adjacent to an end of edge {along_edge}"
            )
        return CombinatorialMap(new_sigma, self.alpha, self.edge_labels)

    # -- equality and serialization --------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CombinatorialMap)
            and self.sigma == other.sigma
            and self.alpha == other.alpha
        )

    def __hash__(self) -> int:
        return hash((self.sigma, self.alpha))

    def __repr__(self) -> str:
        return (
            f"CombinatorialMap(sigma={format_cycles(self.sigma)!r}, "
            f"alpha={format_cycles(self.alpha)!r})"
        )

    def to_text(self) -> str:
        return f"sigma: {format_cycles(self.sigma)}\nalpha: {format_cycles(self.alpha)}\n"

    @classmethod
    def from_text(cls, text: str) -> CombinatorialMap:
        """Parse the two-line map format ``sigma: (0 1 2 3)`` / ``alpha: (0 2)(1 3)``."""
        parts: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(":")
            parts[key.strip().lower()] = value.strip()
        if "sigma" not in parts or "alpha" not in parts:
            raise ValueError("map text needs both a 'sigma:' and an 'alpha:' line")
        alpha_cycles = _parse_cycle_text(parts["alpha"])
        sigma_cycles = _parse_cycle_text(parts["sigma"])
        mentioned = [x for cyc in alpha_cycles + sigma_cycles for x in cyc]
        size = max(mentioned) + 1 if mentioned else 0
        return cls(
            _perm_from_cycles(sigma_cycles, size),
            _perm_from_cycles(alpha_cycles, size),
        )


def _parse_cycle_text(text: str) -> list[list[int]]:
    text = text.strip()
    if text in ("", "()"):
        return []
    if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", text):
        raise ValueError(f"invalid cycle notation: {text!r}")
    cycles = []
    for group in re.findall(r"\(([^()]*)\)", text):
        cycles.append([int(tok) for tok in re.split(r"[\s,]+", group.strip()) if tok])
    return cycles


def _perm_from_cycles(cycles: list[list[int]], size: int) -> list[int]:
    perm = list(range(size))
    seen: set[int] = set()
    for cyc in cycles:
        for x in cyc:
            if x in seen:
                raise ValueError(f"element {x} appears in two cycles")
            seen.add(x)
        for i, x in enumerate(cyc):
            perm[x] = cyc[(i + 1) % len(cyc)]
    return perm


def format_cycles(perm: Sequence[int]) -> str:
    return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in _cycles(perm))


# -- isomorphism ---------------------------------------------------------


def _connected_iso_exists(
    s1: Sequence[int], a1: Sequence[int], s2: Sequence[int], a2: Sequence[int]
) -> bool:
    """Isomorphism test for connected maps of equal size.

    sigma and alpha act transitively on a connected map, so a candidate
    bijection is forced once the image of half-edge 0 is chosen; try all
    choices and propagate.
    """
    n = len(s1)
    if n == 0:
        return True
    for anchor in range(n):
        phi = [-1] * n
        phi[0] = anchor
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            for p1, p2 in ((s1, s2), (a1, a2)):
                y, image = p1[x], p2[phi[x]]
                if phi[y] == -1:
                    phi[y] = image
                    stack.append(y)
                elif phi[y] != image:
                    ok = False
                    break
        if ok and sorted(phi) == list(range(n)):
            return True
    return False


def _relabelled_component(
    m: CombinatorialMap, comp: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    index = {h: i for i, h in enumerate(comp)}
    sigma = tuple(index[m.sigma[h]] for h in comp)
    alpha = tuple(index[m.alpha[h]] for h in comp)
    return sigma, alpha


def are_isomorphic(m1: CombinatorialMap, m2: CombinatorialMap) -> bool:
    """Whether two maps differ only by a relabelling of half-edges."""
    if m1.num_half_edges != m2.num_half_edges:
        return False
    comps1 = [_relabelled_component(m1, c) for c in m1.connected_components()]
    comps2 = [_relabelled_component(m2, c) for c in m2.connected_components()]
    if len(comps1) != len(comps2):
        return False

    def key(comp):
        s, a = comp
        return (len(s), len(_cycles(s)), len(_cycles([s[x] for x in a])))

    comps1.sort(key=key)
    comps2.sort(key=key)
    if [key(c) for c in comps1] != [key(c) for c in comps2]:
        return False

    remaining = list(comps2)

    def match(i: int) -> bool:
        if i == len(comps1):
            return True
        s1, a1 = comps1[i]
        for j, (s2, a2) in enumerate(remaining):
            if s2 is None or len(s2) != len(s1):
                continue
            if _connected_iso_exists(s1, a1, s2, a2):
                saved = remaining[j]
                remaining[j] = (None, None)
                if match(i + 1):
                    return True
                remaining[j] = saved
        return False

    return match(0)
