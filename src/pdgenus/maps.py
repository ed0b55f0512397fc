"""Oriented ribbon graphs encoded as permutation pairs on half-edges.

A map carries ``sigma`` (counterclockwise successor around the incident
vertex-disc) and ``alpha`` (fixed-point-free involution pairing the two
ends of each edge-ribbon).  Vertices are the orbits of ``sigma``, edges
the orbits of ``alpha``, and boundary components the orbits of
``sigma∘alpha``; ``alpha∘sigma`` is conjugate to it and gives the same
orbit count.  The rotation-system encoding makes every represented
surface orientable.

A map is an immutable value: construction validates ``sigma`` and
``alpha`` and computes everything derived from them (vertex cycles,
connected components and the data of the boundary walks) once, and
nothing changes afterwards.  Partial duality and slides return new maps.
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


def _permutation(perm: Sequence[int], name: str) -> tuple[int, ...]:
    """``perm`` as plain ints (``True`` is 1), or ``ValueError`` if not a permutation of 0..n-1."""
    n = len(perm)
    seen = [False] * n
    for x in perm:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            raise ValueError(f"{name} is not a permutation of 0..{n - 1}")
        seen[x] = True
    return tuple(map(int, perm))


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


def _discover(sigma: Sequence[int], alpha: Sequence[int], start: int) -> dict[int, int]:
    """Every half-edge sigma and alpha reach from ``start``, named in discovery order.

    Breadth first from ``start`` (named 0), each visited half-edge h names
    ``sigma[h]`` and then ``alpha[h]`` if they are new.  The dict iterates in
    name order.  It gives the connected components, and the names by which
    the tests' isomorphism oracle compares maps.
    """
    names = {start: 0}
    order = [start]
    for h in order:
        for image in (sigma[h], alpha[h]):
            if image not in names:
                names[image] = len(order)
                order.append(image)
    return names


class CombinatorialMap:
    """An oriented ribbon graph on the half-edge set ``0..2e-1``."""

    __slots__ = (
        "sigma", "alpha", "edges", "_vertices", "_components", "_face_step", "_edge_bits",
    )

    def __init__(self, sigma: Iterable[int], alpha: Iterable[int]) -> None:
        sigma = tuple(sigma)
        alpha = tuple(alpha)
        if len(sigma) != len(alpha):
            raise SizeMismatchError(
                f"sigma acts on {len(sigma)} half-edges, alpha on {len(alpha)}"
            )
        if len(sigma) % 2:
            raise SizeMismatchError("the number of half-edges must be even")
        sigma = _permutation(sigma, "sigma")
        alpha = _permutation(alpha, "alpha")
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
        self._vertices = _cycles(sigma)
        seen: set[int] = set()
        components = []
        for start in range(len(sigma)):
            if start not in seen:
                component = _discover(sigma, alpha, start)
                seen.update(component)
                components.append(tuple(sorted(component)))
        self._components = tuple(components)
        # The rotation of a partial dual G^A steps by sigma∘alpha at a half-edge
        # whose edge bit is in A, and by sigma at any other.
        self._face_step = tuple(sigma[a] for a in alpha)
        edge_bits = [1 << i for i in range(len(self.edges))]  # one int per edge, shared by its ends
        self._edge_bits = tuple(edge_bits[edge] for edge in edge_of)

    # -- basic counting -------------------------------------------------

    @property
    def num_half_edges(self) -> int:
        return len(self.sigma)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return self._vertices

    def boundary_components(self) -> tuple[tuple[int, ...], ...]:
        return _cycles(self._face_step)

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the group generated by sigma and alpha, sorted by minimum."""
        return self._components

    def counts(self) -> tuple[int, int, int, int]:
        """(v, e, f, c): vertices, edges, boundary components, connected components."""
        f = len(self.boundary_components())
        return (len(self._vertices), len(self.edges), f, len(self._components))

    def genus(self) -> int:
        """Total genus, summed over connected components."""
        return self._euler_genus(len(self._vertices), len(self.boundary_components()))

    def _euler_genus(self, v: int, f: int) -> int:
        """The total genus of a map with this map's e and c and the given v and f.

        Per component, 2 - 2g = v - e + f; the total is c - (v - e + f)/2.
        The parity assertion cannot fire for a validated orientable map.
        """
        double = 2 * len(self._components) - (v - len(self.edges) + f)
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
        """The partial dual G^A relative to an edge subset A (Chmutov, JCTB 2009).

        Its rotation sigma_A steps from half-edge h to sigma[alpha[h]] when
        h lies on an edge of A and to sigma[h] otherwise; alpha is
        unchanged.  The single-edge decomposition is equivalent and kept
        as a cross-check in the tests.
        """
        mask = self.subset_mask(subset)
        sigma, step, bits = self.sigma, self._face_step, self._edge_bits
        new_sigma = tuple(step[h] if mask & bits[h] else sigma[h] for h in range(len(sigma)))
        return CombinatorialMap(new_sigma, self.alpha)

    def spanning_boundary_count(self, subset: EdgeSubset | Iterable[int]) -> int:
        """Number of boundary components of the spanning subgraph (V, A).

        These are the vertices of G^A: the cycles of the rotation sigma_A of
        ``partial_dual``, counted in one pass over the half-edges without
        building the dual.  A vertex with no half-edge in A is a cycle of
        sigma_A, one isolated disc with one boundary circle.  The tests
        check the count against the faces of (V, A) built as a map of its own.
        """
        mask = self.subset_mask(subset)
        sigma, step, bits = self.sigma, self._face_step, self._edge_bits
        seen = [False] * len(sigma)
        count = 0
        for start in range(len(sigma)):
            if seen[start]:
                continue
            count += 1
            h = start
            while not seen[h]:
                seen[h] = True
                h = step[h] if mask & bits[h] else sigma[h]
        return count

    def genus_of_partial_dual(self, subset: EdgeSubset | Iterable[int]) -> int:
        """Genus of the partial dual without constructing it.

        Uses v(G^A) = bc(A) and f(G^A) = bc(complement of A) together with
        the invariance of e and c under partial duality.  Exhaustive
        agreement with the explicit construction is enforced by the test
        suite before anything relies on this path.
        """
        mask = self.subset_mask(subset)
        full = (1 << len(self.edges)) - 1
        return self._euler_genus(
            self.spanning_boundary_count(mask), self.spanning_boundary_count(full ^ mask)
        )

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
        return CombinatorialMap(new_sigma, self.alpha)

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

    @classmethod
    def from_text(cls, text: str) -> CombinatorialMap:
        """Parse the two-line map format ``sigma: (0 1 2 3)`` / ``alpha: (0 2)(1 3)``.

        Blank lines and ``#`` lines are skipped; any other line, a second
        ``sigma:`` or ``alpha:`` included, raises ``ValueError`` naming it.
        """
        parts: dict[str, str] = {}
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(":")
            key = key.strip().lower()
            if key not in ("sigma", "alpha") or key in parts:
                what = f"a second {key}" if key in parts else "not a sigma or alpha"
                raise ValueError(f"map text line {number} is {what} line: {line!r}")
            parts[key] = value.strip()
        if "sigma" not in parts or "alpha" not in parts:
            raise ValueError("map text needs both a 'sigma:' and an 'alpha:' line")
        alpha_cycles = _parse_cycle_text(parts["alpha"])
        sigma_cycles = _parse_cycle_text(parts["sigma"])
        mentioned = [x for cyc in alpha_cycles + sigma_cycles for x in cyc]
        size = max(mentioned) + 1 if mentioned else 0
        # Every half-edge of a map lies in an alpha cycle, so a larger id
        # proves a fixed point before 0..size-1 is allocated.
        named = sum(len(cyc) for cyc in alpha_cycles)
        if size > named:
            raise FixedPointError(
                f"ids reach {size - 1} but alpha's cycles name only {named} half-edges, "
                "so alpha fixes one"
            )
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

