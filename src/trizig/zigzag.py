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

from .core import (OMEGA_EDGE_SLOTS, OMEGA_NEGATION, OMEGA_ROTATION,
                   OMEGA_ROTATION_INVERSE, OMEGA_SLOTS, Dart, Edge, Face,
                   Triangulation, face_rotation_inverse, make_face, omega,
                   third_vertex)
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


# The edges of a sorted face (a, b, c) in the order ab, ac, bc: the vertex
# slots of the edge, then the omega index of the dart running along it
# (low -> high) and of the dart running against it.
_EDGE_DARTS = (((0, 1), 0, 3), ((0, 2), 5, 2), ((1, 2), 1, 4))


class _Kernel:
    """The zigzag orbits as int lists, cached per triangulation.

    Position p = 6 f + k is (omega(tri.faces[f])[k], tri.faces[f]); as
    6F = 4E this numbers the positions exactly.  ``step[p]`` is the position
    after p, ``orbits[o]`` lists the positions of orbit o in step order,
    from its least position in (tail, head, face) order, and ``orbit_of[p]``
    is the orbit of p.  Orbits are numbered in the order of their least
    positions, so every output derived from them is deterministic.
    """

    __slots__ = ("step", "orbit_of", "orbits")

    def __init__(self, tri: Triangulation):
        faces = tri.faces
        count = 6 * len(faces)
        # The step from (d, F) is D(d) read in the other face of d's edge.
        step_table = [0] * count
        waiting: typing.Dict[Edge, typing.Tuple[int, int, int, int]] = {}
        for base, face in zip(range(0, count, 6), faces):
            for (low, high), forward, backward in _EDGE_DARTS:
                edge = face[low], face[high]
                here = (base + forward, base + backward,
                        base + OMEGA_ROTATION[forward], base + OMEGA_ROTATION[backward])
                there = waiting.pop(edge, None)
                if there is None:
                    waiting[edge] = here
                    continue
                step_table[here[0]], step_table[there[0]] = there[2], here[2]
                step_table[here[1]], step_table[there[1]] = there[3], here[3]

        # Sort positions by (tail, head, face) as the int key
        # (tail id * V + head id) * 6F + p, darts in omega order.
        vertices = len(tri.vertices)
        rank = {vertex: i * count for i, vertex in enumerate(tri.vertices)}
        keys = []
        for base, (a, b, c) in zip(range(0, count, 6), faces):
            a, b, c = rank[a], rank[b], rank[c]
            keys += (a * vertices + b + base, b * vertices + c + base + 1,
                     c * vertices + a + base + 2, b * vertices + a + base + 3,
                     c * vertices + b + base + 4, a * vertices + c + base + 5)
        keys.sort()

        orbit_of = [-1] * count
        orbits: typing.List[typing.List[int]] = []
        for key in keys:
            start = key % count
            if orbit_of[start] >= 0:
                continue
            orbit = []
            p = start
            while orbit_of[p] < 0:
                orbit_of[p] = len(orbits)
                orbit.append(p)
                p = step_table[p]
            if p != start:
                raise AssertionError("step map failed to be a permutation")
            orbits.append(orbit)
        # Packed: as a list the table would keep 4E int objects alive.
        self.step = array.array("i", step_table)
        self.orbit_of = orbit_of
        self.orbits = orbits


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


def _edge(face: Face, k: int) -> Edge:
    """The undirected edge of dart k of a face in ``omega`` order."""
    low, high = OMEGA_EDGE_SLOTS[k]
    return face[low], face[high]


def _darts(tri: Triangulation, positions) -> typing.Iterator[Dart]:
    return (_dart(tri.faces[p // 6], p % 6) for p in positions)


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

    The zigzag tuple is in deterministic discovery order; ``pairing`` is a
    fixed-point-free involution matching each zigzag with its reverse, so
    ``atlas.pairing[z]`` is the reverse of ``z``.  The orbit lengths always
    sum to 4E.
    """

    __slots__ = ("zigzags", "pairing")

    def __init__(self, zigzags: typing.Tuple[Zigzag, ...],
                 pairing: typing.Dict[Zigzag, Zigzag]):
        self.zigzags = zigzags
        self.pairing = pairing

    @property
    def count(self) -> int:
        return len(self.zigzags)

    @property
    def pair_count(self) -> int:
        return len(self.zigzags) // 2

    def __iter__(self):
        return iter(self.zigzags)

    def __len__(self):
        return len(self.zigzags)


def _build_atlas(tri: Triangulation) -> ZigzagAtlas:
    kernel = _kernel(tri)
    zigzags = tuple(Zigzag(_darts(tri, orbit)) for orbit in kernel.orbits)
    # reverse_position, (d, F) -> (-D^-1(d), F), maps each orbit onto its reverse.
    reversal = [OMEGA_NEGATION[k] for k in OMEGA_ROTATION_INVERSE]
    partners = [kernel.orbit_of[p - p % 6 + reversal[p % 6]]
                for p in (orbit[0] for orbit in kernel.orbits)]
    if any(partner == i or partners[partner] != i
           for i, partner in enumerate(partners)):
        raise AssertionError("reversal pairing is not a fixed-point-free "
                             "involution on the orbit set")
    return ZigzagAtlas(zigzags, {zigzag: zigzags[partner]
                                 for zigzag, partner in zip(zigzags, partners)})


def trace(tri: Triangulation, position: Position) -> Zigzag:
    """The zigzag through a position: iterate step until first return."""
    _check_position(tri, position)
    dart, face = position
    kernel = _kernel(tri)
    orbit_id = kernel.orbit_of[6 * _face_index(tri, face) + omega(face).index(dart)]
    return Zigzag(_darts(tri, kernel.orbits[orbit_id]))


def all_zigzags(tri: Triangulation) -> ZigzagAtlas:
    """The orbit partition of all 4E positions with the reversal pairing."""
    return _cached(tri, "atlas", _build_atlas)


def is_z_knotted(tri: Triangulation) -> bool:
    """Whether there is a single zigzag up to reversal.

    When true, each of the two directed zigzags traverses every edge exactly
    twice; that consequence is re-checked here rather than trusted.
    """
    orbits = _kernel(tri).orbits
    if len(orbits) != 2:
        return False
    faces = tri.faces
    for orbit in orbits:
        counts = collections.Counter(_edge(faces[p // 6], p % 6) for p in orbit)
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
    orbit_ids = _face_orbit_ids(tri, face)
    return frozenset(all_zigzags(tri).zigzags[i] for i in orbit_ids)


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
