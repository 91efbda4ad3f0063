"""The zigzag engine: step permutation, orbits, knottedness, Gauss codes.

A zigzag alternates left and right: consecutive oriented edges share a face
and a head-to-tail vertex, and the shared face changes at every step.  The
walk state is a position (dart, face) standing for the consecutive pair
(rotation^-1(dart), dart) inside that face, so a triangulation with E edges
has exactly 4E positions.  The step map is a bijection on positions and the
zigzags are its orbits; everything else here (knottedness, per-face zigzag
sets, essential faces, Gauss codes) is read off the orbit partition.

Internally position (omega(F)[k], F) is the int 6 f + k, where f indexes F
in the sorted face tuple, and the step map and orbits are int lists; darts
and positions are built only where the public API returns them.
"""

import array
import bisect
import collections
import typing

from .core import (OMEGA_NEGATION, OMEGA_ROTATION, OMEGA_ROTATION_INVERSE,
                   OMEGA_SLOTS, Dart, Edge, Face, Triangulation, face_edges,
                   face_rotation_inverse, make_face, omega, third_vertex)
from .errors import FaceNotFound, InvalidPosition, NotZKnotted


class Position(typing.NamedTuple):
    """A walk state: the dart just traversed and the face it was read in."""

    dart: Dart
    face: Face


def _check_position(tri: Triangulation, position: Position) -> None:
    dart, face = position
    if not tri.has_face(face):
        raise InvalidPosition(f"face {face!r} not in triangulation")
    if dart.tail == dart.head:
        raise InvalidPosition(f"degenerate dart {dart!r}")
    if dart.tail not in face or dart.head not in face:
        raise InvalidPosition(f"dart {dart!r} is not on face {face!r}")


def step(tri: Triangulation, position: Position) -> Position:
    """Advance one zigzag step.

    For position ((u, v), F) the walk continues in the other face F'
    containing {u, v}: the next dart runs from v to the third vertex of F',
    and F' becomes the face of the new position.  A bijection on positions.
    """
    _check_position(tri, position)
    (u, v), face = position
    first, second = tri.edge_faces[position.dart.edge]
    next_face = second if first == face else first
    return Position(Dart(v, third_vertex(next_face, u, v)), next_face)


def reverse_position(position: Position) -> Position:
    """The state of the reversed zigzag at the same spot.

    Maps (dart, F) to (-rotation^-1(dart), F); an involution carrying every
    orbit onto the orbit of its reversed zigzag.
    """
    dart, face = position
    if dart.tail not in face or dart.head not in face:
        raise InvalidPosition(f"dart {dart!r} is not on face {face!r}")
    return Position(-face_rotation_inverse(face, dart), face)


# The darts of a sorted face (a, b, c) on its edge uv, u < v, indexed by
# (u != a) + (v == c) for ab, ac, bc: the omega indices of u -> v and v -> u,
# then of their rotations D(u -> v) and D(v -> u).
_EDGE_SIDES = ((0, 3, 1, 5), (5, 2, 4, 0), (1, 4, 2, 3))


def _link(step, slot, edge_faces, edges) -> None:
    """Set the four step entries across each of ``edges``, both sides at once.

    Position 6 slot[F] + k is dart k of face F, and the step from (d, F) is
    D(d) read in the other face of d's edge, as ``edge_faces`` gives it.
    """
    for edge in edges:
        u, v = edge
        one, two = edge_faces[edge]
        out, back, out_next, back_next = _EDGE_SIDES[(one[0] != u) + (one[2] == v)]
        out2, back2, out2_next, back2_next = _EDGE_SIDES[(two[0] != u) + (two[2] == v)]
        here, there = 6 * slot[one], 6 * slot[two]
        step[here + out], step[here + back] = there + out2_next, there + back2_next
        step[there + out2], step[there + back2] = here + out_next, here + back_next


def _walk(step) -> typing.Tuple[typing.List[typing.List[int]], typing.List[int]]:
    """The orbits of the permutation ``step``, and the orbit of each position.

    Positions are taken in increasing order, so each orbit is listed in step
    order from its least position, and orbit o holds the least position on
    none of orbits 0..o-1.
    """
    orbit_of = [-1] * len(step)
    orbits: typing.List[typing.List[int]] = []
    for start in range(len(step)):
        if orbit_of[start] >= 0:
            continue
        orbit = []
        orbit_id = len(orbits)
        p = start
        while orbit_of[p] < 0:
            orbit_of[p] = orbit_id
            orbit.append(p)
            p = step[p]
        if p != start:
            raise AssertionError("step map failed to be a permutation")
        orbits.append(orbit)
    return orbits, orbit_of


class _Kernel:
    """The zigzag orbits as int lists, cached per triangulation.

    Position p = 6 f + k is (omega(tri.faces[f])[k], tri.faces[f]); as
    6F = 4E this numbers the positions exactly.  ``step[p]`` is the position
    after p, read off ``tri.edge_faces`` by ``_link``; ``orbits[o]`` lists
    the positions of orbit o in step order, and ``orbit_of[p]`` is the orbit
    of p, both from ``_walk``.  Orbit ids follow int position order: orbit o
    holds the least position on none of orbits 0..o-1, and is listed from
    it.  That order is deterministic and costs no sort; only
    ``ZigzagAtlas`` lists zigzags in (tail, head, face) order, and it sorts
    them when it builds them.
    """

    __slots__ = ("step", "orbit_of", "orbits")

    def __init__(self, tri: Triangulation):
        faces = tri.faces
        step_table = [0] * (6 * len(faces))
        _link(step_table, {face: f for f, face in enumerate(faces)},
              tri.edge_faces, tri.edges)

        self.orbits, self.orbit_of = _walk(step_table)
        # Packed: as a list the table would keep 4E int objects alive.
        self.step = array.array("i", step_table)


def _partners(kernel: _Kernel) -> typing.List[int]:
    """The orbit of each kernel orbit's reverse, checked to be a
    fixed-point-free involution."""
    # reverse_position, (d, F) -> (-D^-1(d), F), maps each orbit onto its reverse.
    reversal = [OMEGA_NEGATION[k] for k in OMEGA_ROTATION_INVERSE]
    partners = [kernel.orbit_of[p - p % 6 + reversal[p % 6]]
                for p in (orbit[0] for orbit in kernel.orbits)]
    if any(partner == i or partners[partner] != i
           for i, partner in enumerate(partners)):
        raise AssertionError("reversal pairing is not a fixed-point-free "
                             "involution on the orbit set")
    return partners


def _root(parent: typing.List[int], c: int) -> int:
    """The root of class c in the union-find forest ``parent``, halving its path."""
    while parent[c] != c:
        parent[c] = c = parent[parent[c]]
    return c


class _ZigzagState:
    """The zigzag pairs of a surface under repair, kept current across sums.

    Starts as a copy of the ``_Kernel`` step table.  Position 6 s + k is
    dart k of the face in slot s, as in the kernel, but slots never move: a
    removed face leaves a tombstone, which steps to itself, and the faces of
    each patch take new slots at the end.  After a sum the steps across the
    new edges are read off the glued ``core._Surface``'s ``edge_faces`` by
    ``_link``.  ``orbit_of[p]`` is a class of zigzag pairs, not an orbit:
    at the start each kernel orbit joined with its reverse, and after every
    sum the classes through the removed face merged into one.  ``parent``
    is the union-find forest (Tarjan, J. ACM 1975) over the class ids.
    """

    __slots__ = ("faces", "slot", "step", "orbit_of", "parent")

    def __init__(self, tri: Triangulation):
        kernel = _kernel(tri)
        self.faces: typing.List[typing.Optional[Face]] = list(tri.faces)
        self.slot = {face: s for s, face in enumerate(tri.faces)}
        self.step = list(kernel.step)
        self.orbit_of = list(kernel.orbit_of)
        self.parent = [min(i, partner) for i, partner in enumerate(_partners(kernel))]

    def orbit_count(self, s: int) -> int:
        """How many zigzags meet the face in slot s: 2 iff it is locally
        z-knotted.  They are closed under reversal, so twice their pairs."""
        parent = self.parent
        return 2 * len({_root(parent, c) for c in self.orbit_of[6 * s:6 * s + 6]})

    def monodromy(self, s: int) -> typing.Tuple[int, ...]:
        """The z-monodromy of the face in slot s as in
        ``monodromy._build_monodromies``: seed k maps to D^-1 of the dart of
        the next position in the face.  Three seeds are walked: the reversed
        zigzag runs each arc backwards, so M(e) = e' gives M(-e') = -e."""
        step = self.step
        base, end = 6 * s, 6 * s + 6
        image = [-1] * 6
        for k in range(6):
            if image[k] < 0:
                p = step[base + k]
                while not base <= p < end:
                    p = step[p]
                e = OMEGA_ROTATION_INVERSE[p - base]
                image[k] = e
                image[OMEGA_NEGATION[e]] = OMEGA_NEGATION[k]
        return tuple(image)

    def splice(self, edge_faces: typing.Mapping[Edge, typing.Tuple[Face, ...]],
               removed: Face, added: typing.Sequence[Face],
               monodromy: typing.Sequence[int]) -> int:
        """Follow the sum that replaced ``removed``, of z-monodromy
        ``monodromy``, by ``added`` (``edge_faces``), in O(patch).

        Besides the removed face's, now a tombstone, only the steps across
        the new faces' edges change, and each starts or ends in a new face.
        So the orbits through the new faces are the old ones through
        ``removed``, cut and rejoined through the patch, and every host arc
        between two of their visits to ``removed`` is unchanged: the arc
        that left seed r comes back just before seed D(M(r)).  Only the
        patch positions are walked, each host arc in one jump; returns how
        many orbits they make, 2 when the sum joined them into one pair.
        The removed face's classes merge into a fresh one, which every
        patch position takes.
        """
        slot, faces, step, orbit_of, parent = (
            self.slot, self.faces, self.step, self.orbit_of, self.parent)
        s = slot.pop(removed)
        gone = 6 * s
        faces[s] = None
        # The host positions after and before each seed r of the removed
        # face; the ones before lie on its three neighbours, as those after.
        exits = step[gone:gone + 6]
        entries = [0] * 6
        for base in {p - p % 6 for p in exits}:
            for p in range(base, base + 6):
                if gone <= step[p] < gone + 6:
                    entries[step[p] - gone] = p
        step[gone:gone + 6] = range(gone, gone + 6)
        first = len(step)
        for face in added:
            slot[face] = len(faces)
            faces.append(face)
        step += [0] * (6 * len(added))
        _link(step, slot, edge_faces,
              {edge for face in added for edge in face_edges(face)})

        resume = {exits[r]: entries[OMEGA_ROTATION[monodromy[r]]] for r in range(6)}
        seen = bytearray(len(step) - first)
        through = 0
        for start in range(first, len(step)):
            if seen[start - first]:
                continue
            through += 1
            p = start
            while True:
                seen[p - first] = 1
                p = step[p]
                if p < first:
                    if p not in resume:
                        raise AssertionError(
                            f"a patch step leaves the patch for host position "
                            f"{p}, which did not follow {removed!r}")
                    p = step[resume[p]]
                if p == start:
                    break
                if p < first or seen[p - first]:
                    raise AssertionError("step map failed to be a permutation")

        fresh = len(parent)
        parent.append(fresh)
        for c in orbit_of[gone:gone + 6]:
            parent[_root(parent, c)] = fresh
        orbit_of += [fresh] * (len(step) - first)
        return through


def _cached(tri: Triangulation, key: str, build):
    """``build(tri)``, computed once per triangulation."""
    value = tri._cache.get(key)
    if value is None:
        value = tri._cache[key] = build(tri)
    return value


def _kernel(tri: Triangulation) -> _Kernel:
    return _cached(tri, "zigzag_kernel", _Kernel)


def _face_index(tri: Triangulation, face: Face) -> int:
    """The index of a face of ``tri`` in ``tri.faces`` (which is sorted)."""
    return bisect.bisect_left(tri.faces, face)


def _dart(face: Face, k: int) -> Dart:
    """Dart k of a face in ``omega`` order."""
    tail, head = OMEGA_SLOTS[k]
    return Dart(face[tail], face[head])


def _zigzag(faces: typing.Sequence[Face], orbit: typing.List[int]) -> "Zigzag":
    """The ``Zigzag`` of an int orbit, with ``faces`` the sorted face tuple."""
    return Zigzag(_dart(faces[p // 6], p % 6) for p in orbit)


def least_rotation(sequence):
    """The lexicographically least rotation of a sequence, as a tuple.

    That rotation starts at an occurrence of the least item, so only those
    rotations are compared: O(n m) for m occurrences, and m <= 2 for a
    zigzag, which visits each dart at most twice.
    """
    seq = tuple(sequence)
    if not seq:
        return seq
    least = min(seq)
    return min(seq[i:] + seq[:i] for i, item in enumerate(seq) if item == least)


class Zigzag:
    """A directed zigzag as a canonical cyclic sequence of darts.

    The stored tuple is the lexicographically least rotation, so equality and
    hashing are plain tuple comparisons.  A zigzag is never equal to its own
    reverse.
    """

    __slots__ = ("darts",)

    def __init__(self, darts: typing.Iterable[Dart]):
        self.darts: typing.Tuple[Dart, ...] = least_rotation(darts)

    @property
    def length(self) -> int:
        return len(self.darts)

    @property
    def vertices(self) -> typing.Tuple[str, ...]:
        """The vertex cycle: the tail of each dart in order."""
        return tuple(dart.tail for dart in self.darts)

    @property
    def is_simple(self) -> bool:
        """Whether the vertex cycle has pairwise distinct entries."""
        vertices = self.vertices
        return len(set(vertices)) == len(vertices)

    def reverse(self) -> "Zigzag":
        return Zigzag(-dart for dart in reversed(self.darts))

    def __eq__(self, other):
        return isinstance(other, Zigzag) and self.darts == other.darts

    def __lt__(self, other):
        return self.darts < other.darts

    def __hash__(self):
        return hash(self.darts)

    def __repr__(self):
        return f"Zigzag({','.join(map(repr, self.darts))})"


class ZigzagAtlas:
    """All directed zigzags of a triangulation plus the reversal pairing.

    The zigzag tuple lists the zigzags in the (tail, head, face) order of
    their least positions; ``pairing`` is a fixed-point-free involution
    matching each zigzag with its reverse, so ``atlas.pairing[z]`` is the
    reverse of ``z``.  The orbit lengths always sum to 4E.

    The atlas keeps the kernel's int orbits, in position order, their
    partners and the sorted face tuple, not the triangulation: ``count``,
    ``pair_count`` and ``len`` read the orbits.  The ``Zigzag`` objects are
    built and sorted, and the partners renumbered to match, on the first
    read of ``zigzags``, iteration or ``pairing``, then kept.
    """

    __slots__ = ("_faces", "_orbits", "_partners", "_zigzags", "_pairing")

    def __init__(self, faces: typing.Tuple[Face, ...],
                 orbits: typing.List[typing.List[int]], partners: typing.List[int]):
        self._faces = faces
        self._orbits = orbits
        self._partners = partners
        self._zigzags: typing.Optional[typing.Tuple[Zigzag, ...]] = None
        self._pairing: typing.Optional[typing.Dict[Zigzag, Zigzag]] = None

    @property
    def zigzags(self) -> typing.Tuple[Zigzag, ...]:
        if self._zigzags is None:
            self._zigzags, self._partners = _in_canonical_order(
                self._faces, self._orbits, self._partners)
        return self._zigzags

    @property
    def pairing(self) -> typing.Dict[Zigzag, Zigzag]:
        if self._pairing is None:
            zigzags = self.zigzags
            self._pairing = {zigzag: zigzags[partner]
                             for zigzag, partner in zip(zigzags, self._partners)}
        return self._pairing

    @property
    def count(self) -> int:
        return len(self._orbits)

    @property
    def pair_count(self) -> int:
        return len(self._orbits) // 2

    def __iter__(self):
        return iter(self.zigzags)

    def __len__(self):
        return len(self._orbits)


def _in_canonical_order(faces: typing.Sequence[Face],
                        orbits: typing.List[typing.List[int]], partners: typing.List[int]
                        ) -> typing.Tuple[typing.Tuple[Zigzag, ...], typing.List[int]]:
    """The ``Zigzag`` of each int orbit, and ``partners`` renumbered to
    match, in the (tail, head, face) order of the orbits' least positions.

    An orbit's least position holds its least dart, the first of its
    ``Zigzag``.  A dart has two positions, one in each face of its edge, so
    orbits tie on their least dart only when each holds one of them; the
    int position 6 f + k of that dart (f indexing the sorted faces) then
    orders them as the face does.
    """
    dart_at = [Dart(face[t], face[h]) for face in faces for t, h in OMEGA_SLOTS]
    keys, zigzags = [], []
    for orbit in orbits:
        darts = tuple(map(dart_at.__getitem__, orbit))
        zigzag = Zigzag(darts)
        least = zigzag.darts[0]
        keys.append((least, orbit[darts.index(least)]))
        zigzags.append(zigzag)
    order = sorted(range(len(orbits)), key=keys.__getitem__)
    rank = [0] * len(order)
    for new, old in enumerate(order):
        rank[old] = new
    return (tuple(zigzags[old] for old in order),
            [rank[partners[old]] for old in order])


def _build_atlas(tri: Triangulation) -> ZigzagAtlas:
    kernel = _kernel(tri)
    return ZigzagAtlas(tri.faces, kernel.orbits, _partners(kernel))


def trace(tri: Triangulation, position: Position) -> Zigzag:
    """The zigzag through a position: iterate step until first return."""
    _check_position(tri, position)
    dart, face = position
    kernel = _kernel(tri)
    orbit_id = kernel.orbit_of[6 * _face_index(tri, face) + omega(face).index(dart)]
    return _zigzag(tri.faces, kernel.orbits[orbit_id])


def all_zigzags(tri: Triangulation) -> ZigzagAtlas:
    """The orbit partition of all 4E positions with the reversal pairing."""
    return _cached(tri, "atlas", _build_atlas)


def is_z_knotted(tri: Triangulation) -> bool:
    """Whether there is a single zigzag up to reversal.

    When true, each of the two directed zigzags traverses every edge exactly
    twice; that consequence is re-checked here rather than trusted, on the
    index of each position's edge in ``tri.edges``.
    """
    orbits = _kernel(tri).orbits
    if len(orbits) != 2:
        return False
    edge_id = {edge: i for i, edge in enumerate(tri.edges)}
    edge_at = []  # edge_at[6 f + k]: the edge of dart k of face f, in omega order
    for a, b, c in tri.faces:
        ab, bc, ac = edge_id[a, b], edge_id[b, c], edge_id[a, c]
        edge_at += (ab, bc, ac, ab, bc, ac)
    for orbit in orbits:
        counts = collections.Counter(map(edge_at.__getitem__, orbit))
        if len(counts) != len(tri.edges) or set(counts.values()) != {2}:
            raise AssertionError(
                "single zigzag pair that does not traverse every edge twice")
    return True


def _face_orbit_ids(tri: Triangulation, face: Face) -> typing.Set[int]:
    """Orbits of the six seed positions (dart of face, face): also those of
    every position with its dart on an edge of the face, since one read in
    the neighbouring face steps to a seed."""
    face = make_face(*face)
    if not tri.has_face(face):
        raise FaceNotFound(f"face {face!r} not in triangulation")
    base = 6 * _face_index(tri, face)
    return set(_kernel(tri).orbit_of[base:base + 6])


def zigzags_of_face(tri: Triangulation, face: Face) -> typing.FrozenSet[Zigzag]:
    """The directed zigzags through the edges of a face.

    These are the orbits of the six positions seated at the face; the result
    always has even size 2, 4 or 6 and is closed under reversal.
    """
    orbits = _kernel(tri).orbits
    return frozenset(_zigzag(tri.faces, orbits[i]) for i in _face_orbit_ids(tri, face))


def is_locally_z_knotted(tri: Triangulation, face: Face) -> bool:
    """Whether exactly one zigzag pair meets the edges of the face."""
    return len(_face_orbit_ids(tri, face)) == 2


def is_essential(tri: Triangulation, face: Face) -> bool:
    """Whether every zigzag of the triangulation meets an edge of the face."""
    return len(_face_orbit_ids(tri, face)) == len(_kernel(tri).orbits)


def gauss_code(tri: Triangulation) -> typing.Tuple[str, ...]:
    """The double-occurrence word of a z-knotted triangulation.

    Reads the canonical zigzag (the smaller of the two directed forms) as a
    sequence of undirected edge symbols "u-v"; every symbol occurs exactly
    twice and the word length is 2E.
    """
    if not is_z_knotted(tri):
        raise NotZKnotted("gauss_code requires a z-knotted triangulation")
    representative = min(all_zigzags(tri).zigzags)
    return tuple(f"{dart.edge[0]}-{dart.edge[1]}" for dart in representative.darts)
