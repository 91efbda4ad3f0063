"""Triangulations of closed surfaces as pure face sets.

A triangulation is a connected simple graph embedded in a closed (not
necessarily orientable) surface with every face a triangle.  Two axioms pin
the combinatorics down:

(E1) every edge lies in exactly two distinct faces;
(E2) two distinct faces meet in at most an edge (never a whole triple).

Validation also requires every vertex link to be a single cycle (two discs
pinched together at a vertex satisfy E1 and E2 but are no surface there)
and the faces to be connected across edges.

Under (E1)/(E2) the face set alone determines all incidence.  A
``Triangulation`` stores its sorted faces, its sorted vertices and one int
corner table (Rossignac, Safonova & Szymczak, "3D compression made simple:
Edgebreaker with Corner-Table", 2001): ``across[3 f + j]`` is the corner
3 g + i across edge j of face f, that edge being edge i of face g, with
edges numbered in ``face_edges`` order ab, ac, bc.  Since both faces are
sorted, the lesser end of the edge is the lesser end in both.  It is the
only incidence record, for every face list checked, valid or not: the
corners of an edge in k faces form a k-cycle in it.
Vertex labels are strings ordered lexicographically; integer labels are
canonicalized to their decimal text so that relabeling during surgery stays
stable.

A face list from outside (``Triangulation(faces)``, ``validate``, a parsed
document, a generator's base shape) is validated in full.  A chain of
connected sums is not: it is glued in place on one ``_Surface``, keeping
every axiom for local reasons, and frozen into a ``Triangulation`` once.
"""

import array
import bisect
import collections
import itertools
import re
import types
import typing
from dataclasses import dataclass

from .errors import (EdgeNotInFace, FaceNotFound, InvalidSpecialMap,
                     LabelCollision, ValidationFailure)

Vertex = str
Edge = typing.Tuple[str, str]
Face = typing.Tuple[str, str, str]

# Validation rule identifiers used in reports.
DUPLICATE_FACE = "DuplicateFace"
EDGE_DEGREE = "EdgeDegreeViolation"
NON_MANIFOLD_VERTEX = "NonManifoldVertex"
NON_TRIANGLE = "NonTriangleInput"
DISCONNECTED = "Disconnected"


class Dart(typing.NamedTuple):
    """An oriented edge written tail -> head; ``-dart`` swaps the ends."""

    tail: Vertex
    head: Vertex

    def __neg__(self) -> "Dart":
        return Dart(self.head, self.tail)

    @property
    def edge(self) -> Edge:
        return make_edge(self.tail, self.head)

    def __repr__(self):
        return f"{self.tail}>{self.head}"


def make_edge(u: Vertex, v: Vertex) -> Edge:
    """The undirected edge {u, v} in canonical (sorted) order."""
    if u == v:
        raise ValueError(f"degenerate edge on vertex {u!r}")
    return (u, v) if u < v else (v, u)


def make_face(a: Vertex, b: Vertex, c: Vertex) -> Face:
    """The face {a, b, c} in canonical (sorted) order."""
    face = (a, b, c)
    if len(set(face)) != 3:
        raise ValueError(f"degenerate face {face!r}")
    return typing.cast(Face, tuple(sorted(face)))


def face_edges(face: Face) -> typing.Tuple[Edge, Edge, Edge]:
    """The three edges of a canonical face, each in canonical order."""
    a, b, c = face
    return ((a, b), (a, c), (b, c))


# The vertex slots of edge j of a sorted face, in ``face_edges`` order; the
# edge of vertex slots s != t is s + t - 1.
EDGE_SLOTS = ((0, 1), (0, 2), (1, 2))

# Entry 2 i + h: the vertex slots (s, t) of the ends v and y of a walk that
# enters a face across its edge i, v being the lesser end of that edge iff
# h is 0, and y the vertex off it.
_ENTER_SLOTS = tuple((EDGE_SLOTS[i][h], 2 - i) for i in range(3) for h in (0, 1))


# Dart k of a face (a, b, c) in omega order ab, bc, ca, ba, cb, ac: its
# (tail, head) vertex slots, and the face rotation D, D^-1 and negation as
# permutations of k; the same for every face, as (ab, bc, ca) is a D-cycle.
OMEGA_SLOTS = ((0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2))
OMEGA_ROTATION = (1, 2, 0, 5, 3, 4)
OMEGA_ROTATION_INVERSE = (2, 0, 1, 4, 5, 3)
OMEGA_NEGATION = (3, 4, 5, 0, 1, 2)


def omega(face: Face) -> typing.Tuple[Dart, ...]:
    """The six darts of a face in canonical order.

    With sorted vertices v1 < v2 < v3 the order is the rotation cycle of
    v1->v2 followed by the negations: (v1v2, v2v3, v3v1, v2v1, v3v2, v1v3).
    """
    face = make_face(*face)
    return tuple(Dart(face[tail], face[head]) for tail, head in OMEGA_SLOTS)


def _rotated(face: Face, dart: Dart, table: typing.Tuple[int, ...]) -> Dart:
    """The dart of ``face`` that ``table``, a permutation of omega indices,
    sends ``dart`` to."""
    darts = omega(face)
    if dart not in darts:
        raise EdgeNotInFace(f"dart {dart!r} is not on face {face!r}")
    return darts[table[darts.index(dart)]]


def face_rotation(face: Face, dart: Dart) -> Dart:
    """The in-face rotation: xy -> yz for distinct vertices x, y, z of the face.

    A product of two 3-cycles on the six darts of the face; applying it three
    times is the identity, and rotation(e) = e' implies rotation(-e') = -e.
    """
    return _rotated(face, dart, OMEGA_ROTATION)


def face_rotation_inverse(face: Face, dart: Dart) -> Dart:
    """The dart e0 with rotation(e0) = dart."""
    return _rotated(face, dart, OMEGA_ROTATION_INVERSE)


class Violation(typing.NamedTuple):
    """One validation failure: rule id, offending subject, message."""

    rule: str
    subject: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a face list; ok iff no violations."""

    violations: typing.Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(f"{v.rule}: {v.message}" for v in self.violations)


def _canonical_label(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    raise TypeError(f"vertex label must be text or integer, got {x!r}")


def _reach(start, neighbours) -> set:
    """Every node reachable from ``start`` in the graph given by ``neighbours``."""
    reached = {start}
    stack = [start]
    while stack:
        for node in neighbours(stack.pop()):
            if node not in reached:
                reached.add(node)
                stack.append(node)
    return reached


def _walk_corners(faces: typing.List[Face], across: array.array,
                  ) -> typing.Tuple[typing.Dict[Vertex, int],
                                    typing.Optional[typing.Dict[Vertex, int]]]:
    """Each vertex reached -> a corner at it, and None if every link is one
    cycle and the faces are connected, else each vertex -> the corners
    walked around it.  Needs (E1) and (E2).

    Under (E1) and (E2) the faces at v form disjoint cycles (the link of v)
    in which faces sharing an edge vy are neighbours; each step crosses vy
    and moves y to the next face's third vertex.  The walk starts at
    ``faces[0]``, walks the link of each vertex it reaches once, from the
    face where the vertex was first met, and reaches every link neighbour.
    Each link walk counts one cycle of distinct corners (vertex, face), so
    the count is 3F, every corner, exactly when every vertex was reached
    and its link is a single cycle.  Single-cycle links join the faces at
    each vertex, and a vertex graph connected through them joins all faces,
    so then the surface is also face-connected; conversely a connected
    surface with single-cycle links has every vertex reached.  If the count
    falls short, every vertex is walked once more, from its first corner,
    and its count is its number of faces iff its link is one cycle.  The
    first walk keeps no count per vertex: on a valid surface that would
    only cost memory.

    A step reads only ints: in face f, with v and y at vertex slots s and
    t, edge vy is edge s + t - 1; its partner corner 3 g + i is edge i of
    face g, where v is again the lesser end iff s < t, and the new y is at
    the slot 2 - i off that edge (``_ENTER_SLOTS``).
    """
    found = {v: s for s, v in enumerate(faces[0])}  # vertex -> 3 f + its slot in f
    stack = list(faces[0])
    walked = None  # vertex -> corners walked around it, on the second walk
    corners = 0
    while True:
        while stack:
            v = stack.pop()
            c = found[v]
            s = c % 3
            base = c - s
            u, t = EDGE_SLOTS[2 - s]  # the slots off s
            face = faces[base // 3]
            x, y = face[u], face[t]
            around = 1
            while y != x:
                d = across[base + s + t - 1]
                i = d % 3
                base = d - i
                s, t = _ENTER_SLOTS[2 * i + (s > t)]
                y = faces[base // 3][t]
                around += 1
                if y not in found:
                    found[y] = base + t
                    stack.append(y)
            corners += around
            if walked is not None:
                walked[v] = around
        if walked is not None or corners == 3 * len(faces):
            return found, walked
        found, walked = {}, {}
        for c, v in enumerate(itertools.chain.from_iterable(faces)):
            if v not in found:
                found[v] = c
                stack.append(v)


def _corner_table(faces: typing.List[Face]
                  ) -> typing.Tuple[array.array, typing.Optional[typing.Dict[Edge, int]]]:
    """``across`` of the sorted faces, and, unless every edge lies in
    exactly two faces (E1), the dict of each edge's first corner, through
    which the corners meet; it is dropped under (E1).

    The corners on an edge form one cycle, and ``across[c]`` is the corner
    after c on it: a pair under (E1), a fixed point for an edge in one face
    and a k-cycle for an edge in k faces.
    """
    across = array.array("i", [-1]) * (3 * len(faces))  # -1: alone on its edge so far
    first: typing.Dict[Edge, int] = {}
    meet = first.setdefault
    crowded = False  # some edge lies in three or more faces
    corner = 0
    for a, b, c in faces:
        for edge in ((a, b), (a, c), (b, c)):
            other = meet(edge, corner)
            if other != corner:  # join the edge's cycle right after its first corner
                later = across[other]
                if later < 0:
                    across[corner] = other
                else:
                    across[corner] = later
                    crowded = True
                across[other] = corner
            corner += 1
    if not crowded and 2 * len(first) == corner:
        return across, None
    for c in first.values():
        if across[c] < 0:
            across[c] = c
    return across, first


def _check(faces) -> typing.Tuple[typing.List[Face], typing.Optional[array.array],
                                  typing.List[Vertex], typing.List[Violation]]:
    """Canonicalize a face list, derive its incidence once and validate it.

    Accepts a ``Triangulation`` or any iterable of vertex triples.  Returns the
    sorted faces, their corner table ``across`` and the sorted vertices (None
    and empty unless valid) and every violation, in rule order:
    NonTriangleInput and DuplicateFace by input position, EdgeDegreeViolation
    by edge, NonManifoldVertex by vertex, then Disconnected.

    A face list that passes the per-face checks and pairs every corner
    (``_corner_table``) is certified by one walk over its corners
    (``_walk_corners``), which proves at once that every link is one cycle
    and that the faces are connected.  The report passes read the same
    table: an edge's degree is the length of its corner cycle, the walk's
    counts name the pinched vertices, and ``across`` joins the faces.

    Every face and vertex returned holds one string object per vertex label,
    the first one met (``one``), so the input's other copies of it, one per
    occurrence in a parsed document, can be freed.  The per-entry copies
    are dropped before the corners are paired.
    """
    raw = faces.faces if isinstance(faces, Triangulation) else faces
    violations = []
    seen: typing.Dict[Face, int] = {}
    one = {}.setdefault  # one(x, x): the first label object met equal to x
    try:
        entries = [tuple(item) for item in raw]
    except TypeError as exc:
        return [], None, [], [Violation(
            NON_TRIANGLE, (), f"face list is not a list of vertex triples: {exc}")]
    for i, entry in enumerate(entries):
        # The subject holds the entry only once its labels are known to be
        # text or ints short enough to write: repr() fails on longer ones.
        if len(entry) != 3:
            violations.append(Violation(
                NON_TRIANGLE, (i,), f"face #{i} has {len(entry)} vertices, expected 3"))
            continue
        a, b, c = entry
        if a.__class__ is not str or b.__class__ is not str or c.__class__ is not str:
            try:
                a, b, c = map(_canonical_label, entry)
            except (TypeError, ValueError) as exc:
                # ValueError: an int too long for CPython's int -> str limit.
                violations.append(Violation(NON_TRIANGLE, (i,), f"face #{i}: {exc}"))
                continue
        labels = a, b, c
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
        if a > b:
            a, b = b, a
        if a == "":
            violations.append(Violation(
                NON_TRIANGLE, (i, entry), f"face #{i} has an empty vertex label"))
            continue
        if a == b or b == c:
            violations.append(Violation(
                NON_TRIANGLE, (i, entry),
                f"face #{i} repeats a vertex: {labels}"))
            continue
        face = one(a, a), one(b, b), one(c, c)
        if face in seen:
            violations.append(Violation(
                DUPLICATE_FACE, (seen[face], i, face),
                f"face {face} appears more than once (E2)"))
            continue
        seen[face] = i

    faces = sorted(seen)
    del entries, seen, one
    if not faces:
        violations.append(Violation(NON_TRIANGLE, (), "empty face list"))
        return faces, None, [], violations
    across, first = _corner_table(faces)
    if first is not None:
        for edge in sorted(first):
            c = first[edge]
            degree, d = 1, across[c]
            while d != c:
                degree, d = degree + 1, across[d]
            if degree != 2:
                violations.append(Violation(
                    EDGE_DEGREE, (edge,),
                    f"edge {edge} lies in {degree} face(s), expected 2 (E1)"))
    elif not violations:
        found, walked = _walk_corners(faces, across)
        if walked is None:
            return faces, across, sorted(found), violations
        faces_at = collections.Counter(itertools.chain.from_iterable(faces))
        for v in sorted(walked):
            if walked[v] != faces_at[v]:
                violations.append(Violation(
                    NON_MANIFOLD_VERTEX, (v,),
                    f"link of vertex {v!r} is not a single cycle (pinched surface)"))

    # Face-connected implies vertex-connected, so the vertex graph is walked
    # only to report it alongside a face graph that is found disconnected.
    face_reached = _reach(0, lambda f: [d // 3 for d in across[3 * f:3 * f + 3]])
    if len(face_reached) != len(faces):
        adjacency: typing.Dict[str, set] = {}
        for face in faces:
            for v in face:
                adjacency.setdefault(v, set()).update(face)
        reached = _reach(min(adjacency), adjacency.__getitem__)
        if len(reached) != len(adjacency):
            missing = sorted(set(adjacency) - reached)
            violations.append(Violation(
                DISCONNECTED, tuple(missing),
                f"vertex graph is disconnected; unreachable vertices {missing}"))
        missing_faces = [face for f, face in enumerate(faces) if f not in face_reached]
        violations.append(Violation(
            DISCONNECTED, tuple(missing_faces),
            f"face adjacency graph is disconnected; "
            f"{len(missing_faces)} unreachable face(s)"))
    return faces, None, [], violations


def validate(faces) -> ValidationReport:
    """Validate a face list (or an existing triangulation).

    Accepts either a ``Triangulation`` or any iterable of vertex triples and
    checks (E1), (E2), the vertex links and connectedness.  Reports every
    violation found; never raises.  Idempotent: validating a constructed
    triangulation always reports ok.
    """
    return ValidationReport(tuple(_check(faces)[-1]))


class Triangulation:
    """A validated triangulation, immutable and hashable.

    Construction canonicalizes the face list, validates it strictly and
    derives the corner table ``across`` and the vertices; an invalid face
    list raises ``ValidationFailure`` instead of producing an object.
    Connected sums skip that pass: they are glued onto a ``_Surface`` and
    handed over by ``_Surface.freeze``.  Instances are value objects
    (equality and hash by face set) and safe to share between threads;
    every operation on them is a pure function.

    ``across`` is the only incidence stored; by (E1) there are E = 3F/2
    edges.  ``has_face(face)`` bisects the sorted faces, so only a canonical
    (sorted) triple of the triangulation is found.  ``edges`` is built from
    the faces when read, and the read-only ``edge_faces`` map from
    ``across``, once per triangulation.
    """

    __slots__ = ("faces", "vertices", "across", "_cache")

    def __init__(self, faces):
        faces, across, vertices, violations = _check(faces)
        if violations:
            raise ValidationFailure(ValidationReport(tuple(violations)))
        self.faces: typing.Tuple[Face, ...] = tuple(faces)
        self.vertices: typing.Tuple[str, ...] = tuple(vertices)
        self.across: array.array = across
        self._cache: dict = {}

    @property
    def edges(self) -> typing.Tuple[Edge, ...]:
        return tuple(sorted({edge for face in self.faces for edge in face_edges(face)}))

    @property
    def edge_faces(self) -> typing.Mapping[Edge, typing.Tuple[Face, Face]]:
        """Each edge's two faces, in face order."""
        return _cached(self, "edge_faces", _edge_faces)

    def has_face(self, face: Face) -> bool:
        faces = self.faces
        try:
            i = bisect.bisect_left(faces, face)
        except TypeError:  # no tuple, or a label that text does not compare with
            return False
        return i < len(faces) and faces[i] == face

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __repr__(self):
        return (f"Triangulation({len(self.vertices)} vertices, "
                f"{3 * len(self.faces) // 2} edges, {len(self.faces)} faces)")


_PREFIX = re.compile(r"s(\d+)\.")


def _prefix_numbers(labels: typing.Iterable[str]) -> typing.Set[int]:
    """Every k such that some label starts with "s<k>."."""
    match = _PREFIX.match
    return {int(found.group(1)) for label in labels
            if label[:1] == "s" and (found := match(label))}


def _least_free(taken: typing.AbstractSet[int]) -> int:
    """The least k not in ``taken``: one of 0..len(taken) is free."""
    return min(set(range(len(taken) + 1)) - taken)


def _check_sum_inputs(host, face: Face, other_tri: Triangulation,
                      other_face: Face, gluing) -> typing.Tuple[Face, Face]:
    """The glued faces, canonical, checked against the summands and the map."""
    face = make_face(*face)
    other_face = make_face(*other_face)
    if not host.has_face(face):
        raise FaceNotFound(f"face {face!r} not in first summand")
    if not other_tri.has_face(other_face):
        raise FaceNotFound(f"face {other_face!r} not in second summand")
    if gluing.source_face != face or gluing.target_face != other_face:
        raise InvalidSpecialMap(
            f"special map {gluing.source_face} -> {gluing.target_face} does not "
            f"match the glued faces {face} -> {other_face}")
    return face, other_face


class _Surface:
    """A triangulation under repair: a chain of connected sums applied in place.

    Numbers its faces by slot: ``slot`` maps each live face to its slot,
    and a removed face leaves its slot as a tombstone, which no face maps
    to.  ``across`` is the corner table over the slots, as in a
    ``Triangulation``, so there are ``len(across) // 3`` slots; a
    tombstone's corners are stale.  Each glue appends its patch faces' slots.
    Also holds the set of vertices, the k of every "s<k>." prefix that
    starts a label (``taken``) and the least k not taken (``free``).

    ``glue`` checks and applies one sum, touching only the patch's corners
    and the three host corners across the removed face; ``freeze`` sorts the
    live faces and the vertices once and hands the result over as a
    ``Triangulation``, not validated again: once ``glue``'s checks pass, a sum of two valid
    triangulations is valid for local reasons:

    * every relabeled patch face but the glued one has a fresh vertex, so it
      is no host face (E2); a patch edge is a host edge only if both its ends
      are glued, that is, only if it is an edge of the glued patch face;
    * each of those three glued edges loses the two glued faces and keeps one
      face of each summand; every other edge keeps its two faces (E1);
    * the link of a glued vertex is its host link cut open at the glued face,
      a path between the other two glued vertices, closed by the patch's path
      between the same two, whose inner vertices are fresh: one cycle.  All
      other links are unchanged;
    * a closed surface minus one face is still face-connected, and the glued
      edges join the two sides.
    """

    __slots__ = ("slot", "across", "vertices", "taken", "free")

    def __init__(self, tri: Triangulation):
        self.slot: typing.Dict[Face, int] = {face: s for s, face in enumerate(tri.faces)}
        self.across = tri.across[:]
        self.vertices: typing.Set[Vertex] = set(tri.vertices)
        self.taken = _prefix_numbers(tri.vertices)
        self.free = _least_free(self.taken)

    def has_face(self, face: Face) -> bool:
        """Whether ``face`` is a live face, given canonical (sorted)."""
        try:
            return face in self.slot
        except TypeError:  # unhashable
            return False

    def glue(self, face: Face, patch: Triangulation, patch_face: Face, gluing,
             relabeling: typing.Optional[typing.Mapping[str, str]] = None,
             ) -> typing.Tuple[typing.List[Face], tuple]:
        """Sum ``patch`` onto ``face`` through the ``surgery.SpecialMap``
        ``gluing`` to ``patch_face``, with the fresh labels ``relabeling`` or
        else the "s<k>." prefix ``free``.  Changes nothing unless every check
        passes.  The added faces take new slots, in patch face order, and
        ``face`` becomes a tombstone.  Returns the added faces and the sorted
        (vertex, fresh label) pairs."""
        face, patch_face = _check_sum_inputs(self, face, patch, patch_face, gluing)
        loose = [v for v in patch.vertices if v not in patch_face]
        if relabeling is None:
            prefix = f"s{self.free}."
            fresh = {v: prefix + v for v in loose}
        else:
            fresh = dict(relabeling)
            if set(fresh) != set(loose):
                raise LabelCollision(
                    "explicit relabeling must cover exactly the non-glued vertices")
            if not all(isinstance(label, str) and label for label in fresh.values()):
                raise LabelCollision("explicit relabeling must map to non-empty text")
            if len(set(fresh.values())) != len(loose):
                raise LabelCollision("explicit relabeling is not injective")
        slot, across, vertices = self.slot, self.across, self.vertices
        collisions = sorted(label for label in fresh.values() if label in vertices)
        if collisions:
            raise LabelCollision(
                f"fresh labels collide with existing vertices: {collisions}")
        # V - E + F = V - F/2, as E = 3F/2.
        chi = len(vertices) - len(slot) // 2 + euler_characteristic(patch) - 2

        label = {**fresh, **{target: source for source, target in gluing.pairs}}
        glued = bisect.bisect_left(patch.faces, patch_face)
        gone = slot.pop(face)
        first = len(across) // 3
        # The corner of the sum at each patch corner: the corner of its
        # relabeled face, whose vertex slots may be reordered, or, on the
        # glued face, the host corner across the same edge of ``face``.
        corner_of = [0] * len(patch.across)
        for i, (s, t) in enumerate(EDGE_SLOTS):
            u, v = label[patch_face[s]], label[patch_face[t]]
            corner_of[3 * glued + i] = across[3 * gone + face.index(u) + face.index(v) - 1]
        added = []
        for p, (x, y, z) in enumerate(patch.faces):
            if p == glued:
                continue
            x, y, z = label[x], label[y], label[z]
            # The slot each vertex moves to when the relabeled face is sorted.
            rx, ry = (x > y) + (x > z), (y > x) + (y > z)
            rz = 3 - rx - ry
            ordered = [x, y, z]
            ordered[rx], ordered[ry], ordered[rz] = x, y, z
            s = first + len(added)
            corner_of[3 * p:3 * p + 3] = (3 * s + rx + ry - 1, 3 * s + rx + rz - 1,
                                          3 * s + ry + rz - 1)
            added.append(typing.cast(Face, tuple(ordered)))
            slot[added[-1]] = s
        block = [0] * (3 * len(added))
        for pc, pd in enumerate(patch.across):
            if pc // 3 != glued:
                block[corner_of[pc] - 3 * first] = corner_of[pd]
        across.extend(block)
        for pc in range(3 * glued, 3 * glued + 3):
            across[corner_of[pc]] = corner_of[patch.across[pc]]
        # Every new corner is its partner's partner.
        corners = range(3 * first, len(across))
        if list(map(across.__getitem__, map(across.__getitem__, corners))) != list(corners):
            raise AssertionError("glued corners do not pair up")
        vertices.update(fresh.values())
        self.taken |= _prefix_numbers(fresh.values())
        while self.free in self.taken:
            self.free += 1
        if len(vertices) - len(slot) // 2 != chi:
            raise AssertionError("connected sum changed the Euler characteristic")
        return added, tuple(sorted(fresh.items()))

    def freeze(self) -> Triangulation:
        """The surface as a ``Triangulation``, not validated again: the live
        faces sorted once, and ``across`` renumbered to match."""
        faces = sorted(self.slot)
        slots = list(map(self.slot.__getitem__, faces))
        first = [0] * (len(self.across) // 3)  # slot -> its face's first frozen corner
        for f, s in enumerate(slots):
            first[s] = 3 * f
        frozen = [c + j for c in first for j in (0, 1, 2)]  # corner -> frozen corner
        across = self.across.tolist()
        tri = object.__new__(Triangulation)
        tri.faces = tuple(faces)
        tri.vertices = tuple(sorted(self.vertices))
        tri.across = array.array("i", [frozen[across[c]] for s in slots
                                       for c in (3 * s, 3 * s + 1, 3 * s + 2)])
        tri._cache = {}
        return tri


def _cached(tri: Triangulation, key: str, build):
    """``build(tri)``, computed once per triangulation: the one writer of
    ``tri._cache``."""
    value = tri._cache.get(key)
    if value is None:
        value = tri._cache[key] = build(tri)
    return value


def _edge_faces(tri: Triangulation) -> typing.Mapping[Edge, typing.Tuple[Face, Face]]:
    faces = tri.faces
    return types.MappingProxyType({
        face_edges(faces[c // 3])[c % 3]: (faces[c // 3], faces[d // 3])
        for c, d in enumerate(tri.across) if c < d})


def euler_characteristic(tri: Triangulation) -> int:
    """V - E + F, with E = 3F/2 by (E1)."""
    return len(tri.vertices) - 3 * len(tri.faces) // 2 + len(tri.faces)


def is_orientable(tri: Triangulation) -> bool:
    """Whether the faces admit cyclic orders inducing opposite directions
    on every shared edge.

    Propagates an orientation sign over the face adjacency graph (connected
    by validation) through ``across``; a sign conflict certifies
    non-orientability.  Sign 1 on a sorted face (a, b, c) is the boundary
    a->b->c->a, which runs along every sorted edge of the face except (a, c),
    edge 1.  So faces f and g across edges j and i run their common edge
    against each other iff their signs differ, unless one of j and i is 1.
    """
    across = tri.across
    sign = [0] * len(tri.faces)
    sign[0] = 1
    stack = [0]
    while stack:
        f = stack.pop()
        for j in range(3):
            g, i = divmod(across[3 * f + j], 3)
            required = sign[f] if (j == 1) != (i == 1) else -sign[f]
            if not sign[g]:
                sign[g] = required
                stack.append(g)
            elif sign[g] != required:
                return False
    return True
