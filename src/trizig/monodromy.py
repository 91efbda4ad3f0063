"""Z-monodromy of a face and its classification into seven shapes.

For a face F the z-monodromy sends each dart e of F to the first dart on an
edge of F that the zigzag through the consecutive pair (rotation^-1(e), e)
meets after e.  Relative to the face rotation D there are exactly seven
possible shapes:

  M1  identity
  M2  D
  M3  (-e1,e2,e3)(-e3,-e2,e1)  with (e1,e2,e3) a cycle of D
  M4  (e1,-e2)(e2,-e1), e3 and -e3 fixed, with (e1,e2,e3) a cycle of D
  M5  D^-1
  M6  (-e1,e2,e3)(-e3,-e2,e1)  with (e1,e2,e3) a cycle of D^-1
  M7  (e1,e2)(-e1,-e2), e3 and -e3 fixed, with (e1,e2,e3) a cycle of D

The first four shapes are exactly the ones for which only a single zigzag
pair meets the face, which is equivalent to D composed with the monodromy
being two disjoint 3-cycles; that criterion drives the gluing machinery.
"""

import typing
from dataclasses import dataclass

from . import zigzag as _zz
from .core import Dart, Face, Triangulation, face_rotation, make_face, omega
from .errors import FaceNotFound, UnclassifiableMonodromy


class DartPermutation:
    """A permutation of the six darts of one face."""

    __slots__ = ("face", "domain", "_map")

    def __init__(self, face: Face, mapping: typing.Mapping[Dart, Dart]):
        self.face = make_face(*face)
        self.domain = omega(self.face)
        domain_set = set(self.domain)
        if set(mapping) != domain_set or set(mapping.values()) != domain_set:
            raise ValueError(f"mapping is not a permutation of the darts of {face}")
        self._map = dict(mapping)

    @classmethod
    def identity(cls, face: Face) -> "DartPermutation":
        return cls(face, {dart: dart for dart in omega(face)})

    @classmethod
    def rotation(cls, face: Face) -> "DartPermutation":
        """The face rotation D as a permutation of the face's darts."""
        return cls(face, {dart: face_rotation(face, dart) for dart in omega(face)})

    def __call__(self, dart: Dart) -> Dart:
        return self._map[dart]

    def compose(self, other: "DartPermutation") -> "DartPermutation":
        """self after other (apply ``other`` first)."""
        if other.face != self.face:
            raise ValueError("cannot compose permutations of different faces")
        return DartPermutation(
            self.face, {dart: self._map[other._map[dart]] for dart in self.domain})

    def inverse(self) -> "DartPermutation":
        return DartPermutation(
            self.face, {image: dart for dart, image in self._map.items()})

    def cycles(self) -> typing.Tuple[typing.Tuple[Dart, ...], ...]:
        """Disjoint cycles (fixed points included), in canonical dart order."""
        seen = set()
        out = []
        for start in self.domain:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            current = self._map[start]
            while current != start:
                cycle.append(current)
                seen.add(current)
                current = self._map[current]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> typing.Tuple[int, ...]:
        """Cycle lengths, longest first, fixed points counted as 1."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    @property
    def is_identity(self) -> bool:
        return all(self._map[dart] == dart for dart in self.domain)

    def as_dict(self) -> typing.Dict[Dart, Dart]:
        return dict(self._map)

    def __eq__(self, other):
        return (isinstance(other, DartPermutation)
                and self.face == other.face and self._map == other._map)

    def __hash__(self):
        return hash((self.face, tuple(self._map[dart] for dart in self.domain)))

    def __repr__(self):
        parts = []
        for cycle in self.cycles():
            if len(cycle) > 1:
                parts.append("(" + ",".join(map(repr, cycle)) + ")")
        return "DartPermutation[" + ("".join(parts) or "id") + "]"


Witness = typing.Tuple[Dart, Dart, Dart]


@dataclass(frozen=True)
class MonodromyType:
    """A monodromy shape tag M1..M7 plus the cycle witnessing it.

    The witness is the dart triple (e1, e2, e3) appearing in the shape's
    formula; M1, M2 and M5 need none.  ``expand`` rebuilds the permutation
    from the tag and witness, so a classification can always be replayed.
    """

    tag: str
    witness: typing.Optional[Witness] = None

    def expand(self, face: Face) -> DartPermutation:
        """The permutation this type describes on ``face``, relative to its rotation."""
        rotation = DartPermutation.rotation(face)
        if self.tag == "M1":
            return DartPermutation.identity(face)
        if self.tag == "M2":
            return rotation
        if self.tag == "M5":
            return rotation.inverse()
        if self.tag not in _PATTERNS:
            raise ValueError(f"unknown monodromy tag {self.tag!r}")
        if self.witness is None:
            raise ValueError(f"type {self.tag} requires a witness")
        return DartPermutation(face, _PATTERNS[self.tag](*self.witness))


def _three_cycle_pair_pattern(e1, e2, e3):
    """(-e1,e2,e3)(-e3,-e2,e1) as a mapping (shapes M3 and M6)."""
    return {-e1: e2, e2: e3, e3: -e1, -e3: -e2, -e2: e1, e1: -e3}


def _crossed_transposition_pattern(e1, e2, e3):
    """(e1,-e2)(e2,-e1) with e3, -e3 fixed (shape M4)."""
    return {e1: -e2, -e2: e1, e2: -e1, -e1: e2, e3: e3, -e3: -e3}


def _straight_transposition_pattern(e1, e2, e3):
    """(e1,e2)(-e1,-e2) with e3, -e3 fixed (shape M7)."""
    return {e1: e2, e2: e1, -e1: -e2, -e2: -e1, e3: e3, -e3: -e3}


_PATTERNS = {"M3": _three_cycle_pair_pattern, "M6": _three_cycle_pair_pattern,
             "M4": _crossed_transposition_pattern,
             "M7": _straight_transposition_pattern}


def _shape_table():
    """Every valid monodromy as a 6-tuple of local dart indices -> (tag, witness).

    In ``omega`` order D is the same permutation for every face, so one table
    serves all faces.  Shapes are entered in the order M1, M2, M5, then M3,
    M6, M4, M7 over the cycles of D (of D^-1 for M6) and their rotations;
    the first witness entered for a monodromy is the one kept.
    """
    face = ("a", "b", "c")
    darts = omega(face)
    rotation = DartPermutation.rotation(face)
    candidates = [("M1", None), ("M2", None), ("M5", None)]
    for tag, source in (("M3", rotation), ("M6", rotation.inverse()),
                        ("M4", rotation), ("M7", rotation)):
        for a, b, c in source.cycles():
            candidates += [(tag, (a, b, c)), (tag, (b, c, a)), (tag, (c, a, b))]
    table = {}
    for tag, witness in candidates:
        image = MonodromyType(tag, witness).expand(face)
        table.setdefault(tuple(darts.index(image(dart)) for dart in darts),
                         (tag, witness and tuple(map(darts.index, witness))))
    return table


_SHAPES = _shape_table()


def _monodromy_type(face: Face, image: typing.Tuple[int, ...]) -> MonodromyType:
    if image not in _SHAPES:
        raise UnclassifiableMonodromy(
            f"monodromy {image} of face {face} (local dart indices) matches no shape")
    tag, witness = _SHAPES[image]
    return MonodromyType(tag, witness and tuple(_zz._dart(face, k) for k in witness))


def _build_monodromies(tri: Triangulation) -> typing.List[typing.Tuple[int, ...]]:
    """The z-monodromy of every face, as a 6-tuple of local dart indices.

    The position just before the zigzag through seed (e, F) next returns to
    F, at dart e', reads D^-1(e') on an edge of F, and no earlier position
    after the seed lies on one; so M(e) = D^-1(e').  Walking each orbit
    backwards twice, each position of the second lap meets the next visit
    to its face; the first lap primes ``following``, its images overwritten.
    """
    kernel = _zz._kernel(tri)
    image = [0] * len(kernel.orbit_of)
    following = list(range(0, len(image), 6))
    for orbit in kernel.orbits:
        for p in reversed(orbit + orbit):
            f = p // 6
            image[p] = _zz._ROTATION_INVERSE[following[f] - 6 * f]
            following[f] = p
    return [tuple(image[base:base + 6]) for base in range(0, len(image), 6)]


def z_monodromy(tri: Triangulation, face: Face) -> DartPermutation:
    """The z-monodromy of a face.

    Bijective, never maps a dart to its own negation, satisfies the negation
    law M(e) = e' => M(-e') = -e, and has no cycle longer than 3.
    """
    face = make_face(*face)
    if not tri.has_face(face):
        raise FaceNotFound(f"face {face!r} not in triangulation")
    image = _zz._cached(tri, "monodromies", _build_monodromies)[_zz._face_index(tri, face)]
    darts = omega(face)
    return DartPermutation(face, {dart: darts[k] for dart, k in zip(darts, image)})


def classify(monodromy: DartPermutation) -> MonodromyType:
    """Match a z-monodromy against the seven shapes by table lookup.

    Shapes are relative to the face rotation D of the monodromy's face; they
    are mutually exclusive, and ``_SHAPES`` fixes the witness.
    """
    darts = monodromy.domain
    return _monodromy_type(monodromy.face,
                           tuple(darts.index(monodromy(dart)) for dart in darts))


def is_two_disjoint_3cycles(permutation: DartPermutation) -> bool:
    """Whether the permutation is a product of two disjoint 3-cycles."""
    return permutation.cycle_type() == (3, 3)


def locally_z_knotted_via_monodromy(tri: Triangulation, face: Face) -> bool:
    """Local knottedness decided algebraically: D o M must be two 3-cycles.

    Always agrees with counting the zigzags through the face.
    """
    monodromy = z_monodromy(tri, face)
    rotation = DartPermutation.rotation(face)
    return is_two_disjoint_3cycles(rotation.compose(monodromy))


def face_types(tri: Triangulation) -> typing.Dict[Face, MonodromyType]:
    """Classified z-monodromy for every face, keyed in face order."""
    return {face: _monodromy_type(face, image)
            for face, image in zip(tri.faces, _zz._cached(tri, "monodromies", _build_monodromies))}
