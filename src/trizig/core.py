"""Triangulations of closed surfaces as pure face sets.

A triangulation is a connected simple graph embedded in a closed (not
necessarily orientable) surface with every face a triangle.  Two axioms pin
the combinatorics down:

(E1) every edge lies in exactly two distinct faces;
(E2) two distinct faces meet in at most an edge (never a whole triple).

Validation also requires every vertex link to be a single cycle (two discs
pinched together at a vertex satisfy E1 and E2 but are no surface there)
and the faces to be connected across edges.

Under (E1)/(E2) the face set alone determines all incidence, so a
``Triangulation`` stores nothing but its sorted faces; the edge-to-faces
map and the vertex set are derived at construction time, and the sorted
edges are read off that map on demand.
Vertex labels are strings ordered lexicographically; integer labels are
canonicalized to their decimal text so that relabeling during surgery stays
stable.

A face list from outside (``Triangulation(faces)``, ``validate``, a parsed
document, a generator's base shape) is validated in full.  A chain of
connected sums is not: it is glued in place on one ``_Surface``, keeping
every axiom for local reasons, and frozen into a ``Triangulation`` once.
"""

import bisect
import collections
import itertools
import re
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


def third_vertex(face: Face, u: Vertex, v: Vertex) -> Vertex:
    """The vertex of ``face`` distinct from ``u`` and ``v``."""
    for x in face:
        if x != u and x != v:
            return x
    raise ValueError(f"face {face!r} has no vertex outside {{{u!r}, {v!r}}}")


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


def face_rotation(face: Face, dart: Dart) -> Dart:
    """The in-face rotation: xy -> yz for distinct vertices x, y, z of the face.

    A product of two 3-cycles on the six darts of the face; applying it three
    times is the identity, and rotation(e) = e' implies rotation(-e') = -e.
    """
    darts = omega(face)
    if dart not in darts:
        raise EdgeNotInFace(f"dart {dart!r} is not on face {face!r}")
    return darts[OMEGA_ROTATION[darts.index(dart)]]


def face_rotation_inverse(face: Face, dart: Dart) -> Dart:
    """The dart e0 with rotation(e0) = dart."""
    darts = omega(face)
    if dart not in darts:
        raise EdgeNotInFace(f"dart {dart!r} is not on face {face!r}")
    return darts[OMEGA_ROTATION_INVERSE[darts.index(dart)]]


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


def _walk_corners(faces: typing.List[Face],
                  edge_faces: typing.Dict[Edge, typing.Tuple[Face, ...]],
                  ) -> typing.Optional[typing.List[Vertex]]:
    """The sorted vertices if every link is one cycle and the faces are
    connected, else None.  Needs (E1) and (E2).

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
    surface with single-cycle links has every vertex reached.
    """
    start = faces[0]
    found = dict.fromkeys(start, start)
    stack = list(start)
    corners = 0
    while stack:
        v = stack.pop()
        face = found[v]
        a, b, c = face
        x, y = (b, c) if v == a else (a, c) if v == b else (a, b)
        corners += 1
        while y != x:
            first, second = edge_faces[(v, y) if v < y else (y, v)]
            face = second if first is face else first  # one object per face
            p, q, r = face
            y = p if p != v and p != y else q if q != v and q != y else r
            corners += 1
            if y not in found:
                found[y] = face
                stack.append(y)
    return sorted(found) if corners == 3 * len(faces) else None


def _check(faces) -> typing.Tuple[typing.List[Face],
                                  typing.Dict[Edge, typing.Tuple[Face, ...]],
                                  typing.List[Vertex], typing.List[Violation]]:
    """Canonicalize a face list, derive its incidence once and validate it.

    Accepts a ``Triangulation`` or any iterable of vertex triples.  Returns the
    sorted faces, the edge -> incident-faces map (in sorted-face order), the
    sorted vertices (empty unless valid) and every violation, in rule order:
    NonTriangleInput and DuplicateFace by input position, EdgeDegreeViolation
    by edge, NonManifoldVertex by vertex, then Disconnected.

    A face list that passes the per-face and edge-degree checks is
    certified by one walk over its corners (``_walk_corners``), which
    proves at once that every link is one cycle and that the faces are
    connected.  Only when it falls short do the link and connectivity
    report passes run, to name what is wrong.

    Every face, edge and vertex returned holds one string object per vertex
    label, the first one met (``one``), so the input's other copies of it,
    one per occurrence in a parsed document, can be freed.  The per-entry
    copies are dropped before the edge map is built.
    """
    raw = faces.faces if isinstance(faces, Triangulation) else faces
    violations = []
    seen: typing.Dict[Face, int] = {}
    one = {}.setdefault  # one(x, x): the first label object met equal to x
    try:
        entries = [tuple(item) for item in raw]
    except TypeError as exc:
        return [], {}, [], [Violation(
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
    edge_faces: typing.Dict[Edge, typing.Tuple[Face, ...]] = {}
    get = edge_faces.get
    for face in faces:
        a, b, c = face
        edge = a, b
        edge_faces[edge] = get(edge, ()) + (face,)
        edge = a, c
        edge_faces[edge] = get(edge, ()) + (face,)
        edge = b, c
        edge_faces[edge] = get(edge, ()) + (face,)
    if not faces:
        violations.append(Violation(NON_TRIANGLE, (), "empty face list"))
        return faces, edge_faces, [], violations
    if any(len(incident) != 2 for incident in edge_faces.values()):
        for edge in sorted(edge_faces):
            incident = edge_faces[edge]
            if len(incident) != 2:
                violations.append(Violation(
                    EDGE_DEGREE, (edge,),
                    f"edge {edge} lies in {len(incident)} face(s), expected 2 (E1)"))

    if not violations:
        vertices = _walk_corners(faces, edge_faces)
        if vertices is not None:
            return faces, edge_faces, vertices, violations
        # Under (E1) v is a manifold point iff the link cycle walked from one
        # face at v holds all of its faces.
        faces_at = collections.Counter(itertools.chain.from_iterable(faces))
        pinched = []
        for start in faces:
            a, b, c = start
            for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
                if v not in faces_at:  # walked: its face count was popped
                    continue
                face, around = start, 1
                while y != x:
                    first, second = edge_faces[(v, y) if v < y else (y, v)]
                    face = second if first == face else first
                    p, q, r = face
                    y = p if p != v and p != y else q if q != v and q != y else r
                    around += 1
                if around != faces_at.pop(v):
                    pinched.append(v)
        for v in sorted(pinched):
            violations.append(Violation(
                NON_MANIFOLD_VERTEX, (v,),
                f"link of vertex {v!r} is not a single cycle (pinched surface)"))

    # Face-connected implies vertex-connected, so the vertex graph is walked
    # only to report it alongside a face graph that is found disconnected.
    face_reached = _reach(faces[0], lambda f: (
        edge_faces[f[0], f[1]] + edge_faces[f[0], f[2]] + edge_faces[f[1], f[2]]))
    if len(face_reached) != len(faces):
        adjacency: typing.Dict[str, set] = {}
        for (u, v) in edge_faces:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        reached = _reach(min(adjacency), adjacency.__getitem__)
        if len(reached) != len(adjacency):
            missing = sorted(set(adjacency) - reached)
            violations.append(Violation(
                DISCONNECTED, tuple(missing),
                f"vertex graph is disconnected; unreachable vertices {missing}"))
        missing_faces = sorted(set(faces) - face_reached)
        violations.append(Violation(
            DISCONNECTED, tuple(missing_faces),
            f"face adjacency graph is disconnected; "
            f"{len(missing_faces)} unreachable face(s)"))
    return faces, edge_faces, [], violations


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
    derives ``edge_faces`` and the vertices; an invalid face list raises
    ``ValidationFailure`` instead of producing an object.  Connected sums skip that pass: they
    are glued onto a ``_Surface`` and handed over by ``_Surface.freeze``.
    Instances are value objects (equality and hash by face set) and safe to
    share between threads; every operation on them is a pure function.

    ``edge_faces`` is the only edge record and the only face lookup:
    ``edges`` sorts its keys on each read, and ``has_face(face)`` holds iff
    ``face`` is a tuple among the faces of the edge ``face[:2]``, so only a
    canonical (sorted) triple of the triangulation is found.
    """

    __slots__ = ("faces", "edge_faces", "vertices", "_cache")

    def __init__(self, faces):
        faces, edge_faces, vertices, violations = _check(faces)
        if violations:
            raise ValidationFailure(ValidationReport(tuple(violations)))
        self.faces: typing.Tuple[Face, ...] = tuple(faces)
        self.edge_faces: typing.Dict[Edge, typing.Tuple[Face, Face]] = edge_faces
        self.vertices: typing.Tuple[str, ...] = tuple(vertices)
        self._cache: dict = {}

    @property
    def edges(self) -> typing.Tuple[Edge, ...]:
        return tuple(sorted(self.edge_faces))

    def has_face(self, face: Face) -> bool:
        return isinstance(face, tuple) and face in self.edge_faces.get(face[:2], ())

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __repr__(self):
        return (f"Triangulation({len(self.vertices)} vertices, "
                f"{len(self.edge_faces)} edges, {len(self.faces)} faces)")


_PREFIX = re.compile(r"s(\d+)\.")


def _prefix_numbers(labels: typing.Iterable[str]) -> typing.Set[int]:
    """Every k such that some label starts with "s<k>."."""
    match = _PREFIX.match
    return {int(found.group(1)) for label in labels
            if label[:1] == "s" and (found := match(label))}


def _least_free_prefix(taken: typing.AbstractSet[int]) -> str:
    k = 0
    while k in taken:
        k += 1
    return f"s{k}."


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

    Holds the sorted faces, ``edge_faces``, the sorted vertices and
    ``taken``, the k of every "s<k>." prefix that starts a label.  ``glue``
    checks and applies one sum, touching only the patch's faces and edges;
    ``freeze`` hands the result over as a ``Triangulation``, not validated
    again: once ``glue``'s checks pass, a sum of two valid triangulations
    is valid for local reasons:

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

    __slots__ = ("faces", "edge_faces", "vertices", "taken")

    def __init__(self, tri: Triangulation):
        self.faces: typing.List[Face] = list(tri.faces)
        self.edge_faces: typing.Dict[Edge, typing.Tuple[Face, ...]] = dict(tri.edge_faces)
        self.vertices: typing.List[Vertex] = list(tri.vertices)
        self.taken = _prefix_numbers(tri.vertices)

    has_face = Triangulation.has_face

    def glue(self, face: Face, patch: Triangulation, patch_face: Face, gluing,
             relabeling: typing.Optional[typing.Mapping[str, str]] = None,
             ) -> typing.Tuple[typing.List[Face], tuple]:
        """Sum ``patch`` onto ``face`` through the ``surgery.SpecialMap``
        ``gluing`` to ``patch_face``, with the fresh labels ``relabeling`` or
        else the first "s<k>." prefix not ``taken``.  Changes nothing unless
        every check passes.  Returns the added faces, in patch face order,
        and the sorted (vertex, fresh label) pairs."""
        face, patch_face = _check_sum_inputs(self, face, patch, patch_face, gluing)
        loose = [v for v in patch.vertices if v not in patch_face]
        if relabeling is None:
            prefix = _least_free_prefix(self.taken)
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
        faces, edge_faces, vertices = self.faces, self.edge_faces, self.vertices
        collisions = sorted(label for label in fresh.values()
                            if (i := bisect.bisect_left(vertices, label)) < len(vertices)
                            and vertices[i] == label)
        if collisions:
            raise LabelCollision(
                f"fresh labels collide with existing vertices: {collisions}")
        chi = len(vertices) - len(edge_faces) + len(faces) + euler_characteristic(patch) - 2

        label = {**fresh, **{target: source for source, target in gluing.pairs}}
        relabeled = {f: typing.cast(Face, tuple(sorted(label[v] for v in f)))
                     for f in patch.faces if f != patch_face}
        glued = face_edges(patch_face)
        for edge, incident in patch.edge_faces.items():
            u, v = label[edge[0]], label[edge[1]]
            key = (u, v) if u < v else (v, u)
            if edge in glued:
                kept = [f for f in edge_faces[key] if f != face]
                kept += [relabeled[f] for f in incident if f != patch_face]
                if len(kept) != 2:
                    raise AssertionError(f"glued edge {key} lies in {len(kept)} face(s)")
            else:
                kept = [relabeled[f] for f in incident]
            edge_faces[key] = tuple(sorted(kept))
        del faces[bisect.bisect_left(faces, face)]
        added = list(relabeled.values())
        for f in added:
            bisect.insort(faces, f)
        for v in fresh.values():
            bisect.insort(vertices, v)
        self.taken |= _prefix_numbers(fresh.values())
        if len(vertices) - len(edge_faces) + len(faces) != chi:
            raise AssertionError("connected sum changed the Euler characteristic")
        return added, tuple(sorted(fresh.items()))

    def freeze(self) -> Triangulation:
        """The surface as a ``Triangulation``, not validated again.  Its
        ``edge_faces`` is handed over, so glue nothing after freezing."""
        tri = object.__new__(Triangulation)
        tri.faces = tuple(self.faces)
        tri.edge_faces = self.edge_faces
        tri.vertices = tuple(self.vertices)
        tri._cache = {}
        return tri


def euler_characteristic(tri: Triangulation) -> int:
    """V - E + F."""
    return len(tri.vertices) - len(tri.edge_faces) + len(tri.faces)


def is_orientable(tri: Triangulation) -> bool:
    """Whether the faces admit cyclic orders inducing opposite directions
    on every shared edge.

    Propagates an orientation sign over the face adjacency graph (connected
    by validation); a sign conflict certifies non-orientability.  Sign 1 on
    a sorted face (a, b, c) is the boundary a->b->c->a, which runs along
    every sorted edge of the face except (a, c).
    """
    sign = {tri.faces[0]: 1}
    stack = [tri.faces[0]]
    while stack:
        face = stack.pop()
        a, b, c = face
        for edge, direction in (((a, b), sign[face]), ((b, c), sign[face]),
                                ((a, c), -sign[face])):
            first, second = tri.edge_faces[edge]
            neighbor = second if first == face else first
            # The neighbour must run the edge against ``direction``.
            required = direction if edge == (neighbor[0], neighbor[2]) else -direction
            if neighbor not in sign:
                sign[neighbor] = required
                stack.append(neighbor)
            elif sign[neighbor] != required:
                return False
    return True
