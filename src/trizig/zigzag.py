"""The zigzag engine: step permutation, orbits, knottedness, Gauss codes.

A zigzag alternates left and right: consecutive oriented edges share a face
and a head-to-tail vertex, and the shared face changes at every step.  The
walk state is a position (dart, face) standing for the consecutive pair
(rotation^-1(dart), dart) inside that face, so a triangulation with E edges
has exactly 4E positions.  The step map is a bijection on positions and the
zigzags are its orbits; everything else here (knottedness, per-face zigzag
sets, essential faces, Gauss codes) is read off the orbit partition.

Internally position (omega(F)[k], F) is the int 6 f + k, where f indexes F
in the sorted face tuple.  The step map is read off the triangulation's
corner table, walked once and dropped; each orbit and the orbit of each
position are kept as packed int arrays (``array("i")``) in one cached
``ZigzagAtlas``, so no int object per position stays alive, and darts and
positions are built only where the public API returns them.
"""

import array
import bisect
import collections
import functools
import typing

from .core import (EDGE_SLOTS, OMEGA_NEGATION, OMEGA_ROTATION, OMEGA_ROTATION_INVERSE,
                   OMEGA_SLOTS, Dart, Face, Triangulation, _cached, make_face, omega)
from .errors import FaceNotFound, InvalidPosition, NotZKnotted


class Position(typing.NamedTuple):
    """A walk state: the dart just traversed and the face it was read in."""

    dart: Dart
    face: Face


def _unpack(position) -> typing.Tuple[typing.Any, typing.Any]:
    """The (dart, face) pair of a position, not yet checked."""
    try:
        dart, face = position
    except (TypeError, ValueError):
        raise InvalidPosition(f"position {position!r} is not a (dart, face) pair") from None
    return dart, face


def _dart_on(face: Face, dart) -> Dart:
    """``dart``, any (tail, head) pair of two vertices of ``face``, as a ``Dart``."""
    try:
        dart = Dart(*dart)
    except TypeError:
        raise InvalidPosition(f"dart {dart!r} is not a (tail, head) pair") from None
    try:
        on_face = dart.tail in face and dart.head in face
    except TypeError:  # a face that holds no labels
        on_face = False
    if not on_face:
        raise InvalidPosition(f"dart {dart!r} is not on face {face!r}")
    if dart.tail == dart.head:
        raise InvalidPosition(f"degenerate dart {dart!r}")
    return dart


def _check_position(tri: Triangulation, position: Position) -> typing.Tuple[int, Dart]:
    """The index in ``tri.faces`` of the face of a valid position, and its dart."""
    dart, face = _unpack(position)
    if not tri.has_face(face):
        raise InvalidPosition(f"face {face!r} not in triangulation")
    return bisect.bisect_left(tri.faces, face), _dart_on(face, dart)


def step(tri: Triangulation, position: Position) -> Position:
    """Advance one zigzag step.

    For position ((u, v), F) the walk continues in the other face F'
    containing {u, v}: the next dart runs from v to the third vertex of F',
    and F' becomes the face of the new position.  A bijection on positions.
    It reads ``tri.across``: {u, v} is edge s + t - 1 of F, with u and v
    at slots s and t, and edge i of F', whose third vertex is at slot 2 - i.
    """
    f, (u, v) = _check_position(tri, position)
    face = tri.faces[f]
    g, i = divmod(tri.across[3 * f + face.index(u) + face.index(v) - 1], 3)
    next_face = tri.faces[g]
    return Position(Dart(v, next_face[2 - i]), next_face)


def reverse_position(position: Position) -> Position:
    """The state of the reversed zigzag at the same spot.

    Maps (dart, F) to (-rotation^-1(dart), F); an involution carrying every
    orbit onto the orbit of its reversed zigzag.
    """
    dart, face = _unpack(position)
    try:
        darts = omega(face)
    except (TypeError, ValueError):  # no three distinct, comparable labels
        raise InvalidPosition(f"face {face!r} is not a face") from None
    k = darts.index(_dart_on(face, dart))
    return Position(-darts[OMEGA_ROTATION_INVERSE[k]], face)


# The step entries across an edge, by its edge slots j in face f and i in
# face g: entry 3 j + i is (k, m, k2, m2), where position 6 f + k, the dart
# u -> v (u < v) on edge j, steps to 6 g + m, D(u -> v) in g, and 6 f + k2,
# the dart v -> u, steps to 6 g + m2, D(v -> u) in g.  Both faces are
# sorted, so u is the lesser end in both.
_CROSSING = tuple(
    (OMEGA_SLOTS.index((s, t)), OMEGA_ROTATION[OMEGA_SLOTS.index((s2, t2))],
     OMEGA_SLOTS.index((t, s)), OMEGA_ROTATION[OMEGA_SLOTS.index((t2, s2))])
    for s, t in EDGE_SLOTS for s2, t2 in EDGE_SLOTS)

# The edge slot of dart k of a face: its vertex slots s, t name edge s + t - 1.
_DART_EDGE = tuple(s + t - 1 for s, t in OMEGA_SLOTS)


def _step_map(across: typing.Sequence[int]) -> typing.List[int]:
    """The step list of the corner table ``across``, two entries per corner
    c on c's side of its edge: the step from (d, F) is D(d) read in the
    other face of d's edge, and corner 3 g + i across from 3 f + j tells
    that face and, through ``_CROSSING``, where D(d) sits in it."""
    step = [0] * (2 * len(across))
    for c, d in enumerate(across):
        j, i = c % 3, d % 3
        k, m, k2, m2 = _CROSSING[3 * j + i]
        here, there = 2 * (c - j), 2 * (d - i)
        step[here + k] = there + m
        step[here + k2] = there + m2
    return step


def _walk(step: typing.Sequence[int]
          ) -> typing.Tuple[typing.List[array.array], typing.List[int]]:
    """The orbits of the permutation ``step``, and the orbit of each position:
    the library's one cycle walker, for zigzags, dart permutations and the
    arcs through a patch alike.

    Positions are taken in increasing order, so each orbit is listed in step
    order from its least position, and orbit o holds the least position on
    none of orbits 0..o-1.  Each orbit is packed into an ``array("i")`` as it
    closes, so it keeps no int object alive; ``step`` is read as a list or
    tuple, whose subscripts are faster than an array's.
    """
    orbit_of = [-1] * len(step)
    orbits: typing.List[array.array] = []
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
        orbits.append(array.array("i", orbit))
    return orbits, orbit_of


# The reversal R of ``reverse_position``, (d, F) -> (-D^-1(d), F), on dart
# indices; it maps each orbit onto its reverse, so R(step[R(p)]) precedes p.
_REVERSAL = tuple(OMEGA_NEGATION[k] for k in OMEGA_ROTATION_INVERSE)


class _ZigzagState:
    """The zigzag step map of a surface under repair, on the positions of
    the faces planned for repair and kept current across sums.

    Made from a surface's orbits, of positions 6 f + k as in the atlas, and
    a list of its face indices: position 6 i + k is dart k of the i-th
    listed face, so the state holds six entries per listed face and the
    queries take that index i.  Each position steps to the next listed
    position on its zigzag, every other position between them skipped.  No
    patch position ever enters the list either: after a sum each live
    listed position still steps to the next listed one on its zigzag, so
    the list never grows and a face's monodromy walks only the listed
    positions on its orbits.  A tombstone's positions step to themselves.
    Which zigzags make one pair is for ``shredding.shred`` to track.
    """

    __slots__ = ("step",)

    def __init__(self, orbits: typing.Iterable[typing.Sequence[int]], faces: typing.Sequence[int]):
        at = {f: 6 * i for i, f in enumerate(faces)}
        self.step = step = [0] * (6 * len(at))
        for orbit in orbits:
            kept = [at[p // 6] + p % 6 for p in orbit if p // 6 in at]
            for p, q in zip(kept, kept[1:] + kept[:1]):
                step[p] = q

    def monodromy(self, i: int) -> typing.Tuple[int, ...]:
        """The z-monodromy of listed face i as in ``monodromy._build_monodromies``:
        seed k maps to D^-1 of the dart of the next position in the face.
        Three seeds are walked: the reversed zigzag runs each arc backwards,
        so M(e) = e' gives M(-e') = -e.  A walk longer than the state,
        which only a broken state makes, raises ``AssertionError``."""
        step, base = self.step, 6 * i
        end = base + 6
        image = [-1] * 6
        for k in range(6):
            if image[k] < 0:
                p = step[base + k]
                for _turn in range(len(step)):
                    if base <= p < end:
                        break
                    p = step[p]
                else:
                    raise AssertionError(f"the zigzag from seed {k} of face {i} never returns")
                e = OMEGA_ROTATION_INVERSE[p - base]
                image[k] = e
                image[OMEGA_NEGATION[e]] = OMEGA_NEGATION[k]
        return tuple(image)

    def splice(self, removed: int, monodromy: typing.Sequence[int],
               transit: typing.Sequence[int]) -> int:
        """Follow the sum that replaced listed face ``removed``, of
        z-monodromy ``monodromy``, by a patch, in six links.

        Every host arc between two visits of a zigzag to the removed face is
        unchanged, so only the six positions just before its seeds step
        elsewhere: the arc that entered the face in place of seed j now
        runs through the patch and leaves it as seed ``transit[j]`` did
        (``surgery._transit``).  Seed r steps out to exits[r] = step[r] and
        in from R(step[R(r)]).  Once a neighbour's patch is skipped, an exit
        can be another seed of the face, which hands the arc on again.  The
        seeds become a tombstone, stepping to themselves.  Returns how many
        zigzags run through the patch, the cycles of r -> transit[D(M(r))]:
        the arc leaving seed r comes back in place of seed D(M(r)).
        """
        step, gone = self.step, 6 * removed
        end = gone + 6
        # The positions after and before each seed r of the removed face.
        exits = step[gone:end]
        entries = [p - p % 6 + _REVERSAL[p % 6] for p in map(exits.__getitem__, _REVERSAL)]
        for j, p in enumerate(entries):
            if gone <= p < end:
                continue
            q = exits[transit[j]]
            for _turn in range(6):
                if not gone <= q < end:
                    break
                q = exits[transit[q - gone]]
            else:
                raise AssertionError(f"the arcs through listed face {removed} close on its seeds")
            step[p] = q
        step[gone:end] = range(gone, end)
        return len(_walk([transit[OMEGA_ROTATION[monodromy[r]]] for r in range(6)])[0])


def _atlas(tri: Triangulation) -> "ZigzagAtlas":
    """``all_zigzags(tri)`` for the library's own reads, which a wrapper
    of ``all_zigzags`` must not see."""
    return _cached(tri, "atlas", ZigzagAtlas)


def _face_index(tri: Triangulation, face: Face) -> int:
    """The index in the sorted ``tri.faces`` of ``face``, its vertices in any
    order: the one check of a face argument.  ``make_face`` raises first, on
    a repeated vertex or a wrong length; a face ``tri`` lacks raises
    ``FaceNotFound``."""
    face = make_face(*face)
    if not tri.has_face(face):
        raise FaceNotFound(f"face {face!r} not in triangulation")
    return bisect.bisect_left(tri.faces, face)


def _dart(face: Face, k: int) -> Dart:
    """Dart k of a face in ``omega`` order."""
    tail, head = OMEGA_SLOTS[k]
    return Dart(face[tail], face[head])


def _zigzag(faces: typing.Sequence[Face], orbit: typing.Sequence[int]) -> "Zigzag":
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

    Built once per triangulation, and the one cached record of its zigzags.
    Position p = 6 f + k is (omega(tri.faces[f])[k], tri.faces[f]); as
    6F = 4E this numbers the positions exactly.  The step map is read off
    the corner table ``tri.across`` alone by ``_step_map``, walked once by
    ``_walk`` and dropped: ``_orbits[o]`` lists the positions of orbit o in
    step order, and ``_orbit_of[p]`` is the orbit of p, both ``array("i")``s,
    so the atlas holds no int object per position.  ``_partners[o]``, the
    orbit of orbit o's reverse (through R of its first position), is
    checked to be a fixed-point-free involution once here.  Orbit ids follow
    int position order: orbit o holds the least position on none of orbits
    0..o-1, and is listed from it.  That order is deterministic and costs no
    sort, and it is the only numbering the atlas keeps.

    The atlas keeps the sorted face tuple, not the triangulation: ``count``,
    ``pair_count`` and ``len`` read the orbits.  The ``Zigzag`` objects are
    built, sorted and paired, on the first read of ``zigzags``, iteration or
    ``pairing``, then kept.
    """

    def __init__(self, tri: Triangulation):
        self._orbits, orbit_of = _walk(_step_map(tri.across))
        # Packed, like the orbits: as a list it would keep the 4E int
        # objects alive that the packed orbits let go, or 4E pointers.
        self._orbit_of = array.array("i", orbit_of)
        self._partners = partners = [orbit_of[p - p % 6 + _REVERSAL[p % 6]]
                                     for p in (orbit[0] for orbit in self._orbits)]
        if any(partner == i or partners[partner] != i
               for i, partner in enumerate(partners)):
            raise AssertionError("reversal pairing is not a fixed-point-free "
                                 "involution on the orbit set")
        self._faces = tri.faces

    @functools.cached_property
    def _listing(self) -> typing.Tuple[typing.Tuple[Zigzag, ...], typing.Dict[Zigzag, Zigzag]]:
        return _in_canonical_order(self._faces, self._orbits, self._partners)

    @property
    def zigzags(self) -> typing.Tuple[Zigzag, ...]:
        return self._listing[0]

    @property
    def pairing(self) -> typing.Dict[Zigzag, Zigzag]:
        return self._listing[1]

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
                        orbits: typing.List[array.array], partners: typing.List[int]
                        ) -> typing.Tuple[typing.Tuple[Zigzag, ...], typing.Dict[Zigzag, Zigzag]]:
    """The ``Zigzag`` of each int orbit in the (tail, head, face) order of
    the orbits' least positions, and the reversal pairing, built in that
    order from ``partners`` by orbit id.

    An orbit's least position holds its least dart, the first of its
    ``Zigzag``.  A dart has two positions, one in each face of its edge, so
    orbits tie on their least dart only when each holds one of them; the
    int position 6 f + k of that dart (f indexing the sorted faces) then
    orders them as the face does.
    """
    dart_at = [Dart(face[t], face[h]) for face in faces for t, h in OMEGA_SLOTS]
    keys, by_orbit = [], []
    for orbit in orbits:
        darts = tuple(map(dart_at.__getitem__, orbit))
        zigzag = Zigzag(darts)
        least = zigzag.darts[0]
        keys.append((least, orbit[darts.index(least)]))
        by_orbit.append(zigzag)
    order = sorted(range(len(orbits)), key=keys.__getitem__)
    return (tuple(map(by_orbit.__getitem__, order)),
            {by_orbit[o]: by_orbit[partners[o]] for o in order})


def trace(tri: Triangulation, position: Position) -> Zigzag:
    """The zigzag through a position: iterate step until first return."""
    f, dart = _check_position(tri, position)
    atlas = _atlas(tri)
    orbit_id = atlas._orbit_of[6 * f + omega(tri.faces[f]).index(dart)]
    return _zigzag(tri.faces, atlas._orbits[orbit_id])


def all_zigzags(tri: Triangulation) -> ZigzagAtlas:
    """The orbit partition of all 4E positions with the reversal pairing."""
    return _atlas(tri)


def is_z_knotted(tri: Triangulation) -> bool:
    """Whether there is a single zigzag up to reversal.

    When true, each of the two directed zigzags traverses every edge exactly
    twice; that consequence is re-checked here rather than trusted.  The
    edge of corner c is named by the lesser of c and ``across[c]``.
    """
    orbits = _atlas(tri)._orbits
    if len(orbits) != 2:
        return False
    edge = list(map(min, range(len(tri.across)), tri.across))
    # edge_at[6 f + k]: the edge of dart k of face f, in omega order.
    edge_at = [0] * (2 * len(edge))
    for k, e in enumerate(_DART_EDGE):
        edge_at[k::6] = edge[e::3]
    for orbit in orbits:
        counts = collections.Counter(map(edge_at.__getitem__, orbit))
        if len(counts) != len(edge) // 2 or set(counts.values()) != {2}:
            raise AssertionError(
                "single zigzag pair that does not traverse every edge twice")
    return True


def _face_orbit_ids(tri: Triangulation, face: Face) -> typing.Set[int]:
    """Orbits of the six seed positions (dart of face, face): also those of
    every position with its dart on an edge of the face, since one read in
    the neighbouring face steps to a seed."""
    base = 6 * _face_index(tri, face)
    return set(_atlas(tri)._orbit_of[base:base + 6])


def zigzags_of_face(tri: Triangulation, face: Face) -> typing.FrozenSet[Zigzag]:
    """The directed zigzags through the edges of a face.

    These are the orbits of the six positions seated at the face; the result
    always has even size 2, 4 or 6 and is closed under reversal.
    """
    orbits = _atlas(tri)._orbits
    return frozenset(_zigzag(tri.faces, orbits[i]) for i in _face_orbit_ids(tri, face))


def is_locally_z_knotted(tri: Triangulation, face: Face) -> bool:
    """Whether exactly one zigzag pair meets the edges of the face."""
    return len(_face_orbit_ids(tri, face)) == 2


def is_essential(tri: Triangulation, face: Face) -> bool:
    """Whether every zigzag of the triangulation meets an edge of the face."""
    return len(_face_orbit_ids(tri, face)) == _atlas(tri).count


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
