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

import types
import typing
from dataclasses import dataclass

from . import zigzag as _zz
from .core import (OMEGA_NEGATION, OMEGA_ROTATION, OMEGA_ROTATION_INVERSE, Dart,
                   Face, Triangulation, make_face, omega)
from .errors import FaceNotFound, UnclassifiableMonodromy

_IDENTITY = (0, 1, 2, 3, 4, 5)


class DartPermutation:
    """A permutation of the six darts of one face.

    Stored as the face and ``image``, the 6-tuple of ``omega`` indices with
    dart k mapped to dart ``image[k]``.
    """

    __slots__ = ("face", "image")

    def __init__(self, face: Face, mapping: typing.Mapping[Dart, Dart]):
        self.face = make_face(*face)
        darts = omega(self.face)
        if set(mapping) != set(darts) or set(mapping.values()) != set(darts):
            raise ValueError(f"mapping is not a permutation of the darts of {face}")
        self.image = tuple(darts.index(mapping[dart]) for dart in darts)

    @classmethod
    def _of(cls, face: Face, image: typing.Tuple[int, ...]) -> "DartPermutation":
        """The permutation ``image`` of a canonical face's darts, unchecked."""
        permutation = cls.__new__(cls)
        permutation.face, permutation.image = face, image
        return permutation

    @classmethod
    def identity(cls, face: Face) -> "DartPermutation":
        return cls._of(make_face(*face), _IDENTITY)

    @classmethod
    def rotation(cls, face: Face) -> "DartPermutation":
        """The face rotation D as a permutation of the face's darts."""
        return cls._of(make_face(*face), OMEGA_ROTATION)

    def compose(self, other: "DartPermutation") -> "DartPermutation":
        """self after other (apply ``other`` first)."""
        if other.face != self.face:
            raise ValueError("cannot compose permutations of different faces")
        return DartPermutation._of(self.face, tuple(self.image[k] for k in other.image))

    def cycles(self) -> typing.Tuple[typing.Tuple[Dart, ...], ...]:
        """Disjoint cycles (fixed points included), in canonical dart order."""
        cycles = []
        for start in range(6):
            if not any(start in cycle for cycle in cycles):
                cycle = [start]
                while self.image[cycle[-1]] != start:
                    cycle.append(self.image[cycle[-1]])
                cycles.append(cycle)
        darts = omega(self.face)
        return tuple(tuple(darts[k] for k in cycle) for cycle in cycles)

    def cycle_type(self) -> typing.Tuple[int, ...]:
        """Cycle lengths, longest first, fixed points counted as 1."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    @property
    def is_identity(self) -> bool:
        return self.image == _IDENTITY

    def __eq__(self, other):
        return (isinstance(other, DartPermutation)
                and self.face == other.face and self.image == other.image)

    def __hash__(self):
        return hash((self.face, self.image))

    def __repr__(self):
        parts = []
        for cycle in self.cycles():
            if len(cycle) > 1:
                parts.append("(" + ",".join(map(repr, cycle)) + ")")
        return "DartPermutation[" + ("".join(parts) or "id") + "]"


Witness = typing.Tuple[Dart, Dart, Dart]

# Each shape as the slots of the images of (e1, e2, e3, -e1, -e2, -e3), in
# that slot order; e.g. M3 sends e1 (slot 0) to -e3 (slot 5).  The
# witness-free shapes M1, M2 and M5 are the same for every cycle of D, and
# with (e1, e2, e3) = (0, 1, 2) the slots are the omega indices.
_SHAPE_SLOTS = {"M1": _IDENTITY, "M2": OMEGA_ROTATION, "M5": OMEGA_ROTATION_INVERSE,
                "M3": (5, 2, 3, 1, 0, 4), "M6": (5, 2, 3, 1, 0, 4),
                "M4": (4, 3, 2, 1, 0, 5), "M7": (1, 0, 2, 4, 3, 5)}

_WITNESS_FREE = ("M1", "M2", "M5")


def _shape_image(tag: str, e1: int, e2: int, e3: int) -> typing.Tuple[int, ...]:
    """Shape ``tag`` with witness darts at omega indices e1, e2, e3."""
    darts = (e1, e2, e3, OMEGA_NEGATION[e1], OMEGA_NEGATION[e2], OMEGA_NEGATION[e3])
    if len(set(darts)) != 6:
        raise ValueError(f"witness {(e1, e2, e3)} does not name three edges")
    return tuple(darts[_SHAPE_SLOTS[tag][darts.index(k)]] for k in range(6))


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
        if self.tag not in _SHAPE_SLOTS:
            raise ValueError(f"unknown monodromy tag {self.tag!r}")
        face = make_face(*face)
        darts = omega(face)
        witness = darts[:3] if self.tag in _WITNESS_FREE else self.witness
        if witness is None:
            raise ValueError(f"type {self.tag} requires a witness")
        return DartPermutation._of(face, _shape_image(self.tag, *map(darts.index, witness)))


def _shape_table():
    """Every valid monodromy as a 6-tuple of local dart indices -> (tag, witness).

    In ``omega`` order D is the same permutation for every face, so one table
    serves all faces.  Shapes are entered in the order M1, M2, M5, then M3,
    M6, M4, M7 over the rotation cycles (k, D k, D^2 k) for k = 0..5 (of
    D^-1 for M6); the first witness entered for a monodromy is the one kept,
    so witnesses are the rotations of the cycle through dart 0.
    """
    table = {_SHAPE_SLOTS[tag]: (tag, None) for tag in _WITNESS_FREE}
    for tag, d in (("M3", OMEGA_ROTATION), ("M6", OMEGA_ROTATION_INVERSE),
                   ("M4", OMEGA_ROTATION), ("M7", OMEGA_ROTATION)):
        for k in range(6):
            witness = (k, d[k], d[d[k]])
            table.setdefault(_shape_image(tag, *witness), (tag, witness))
    return table


_SHAPES = _shape_table()

# One frozen type per witness-free tag, shared by every face of that shape.
_WITNESS_FREE_TYPES = {tag: MonodromyType(tag) for tag in _WITNESS_FREE}


def _shape(face: Face, image: typing.Tuple[int, ...]
           ) -> typing.Tuple[str, typing.Optional[typing.Tuple[int, int, int]]]:
    """The (tag, witness indices) entry of ``_SHAPES`` for a face's monodromy."""
    shape = _SHAPES.get(image)
    if shape is None:
        raise UnclassifiableMonodromy(
            f"monodromy {image} of face {face} (local dart indices) matches no shape")
    return shape


def _monodromy_type(face: Face, image: typing.Tuple[int, ...]) -> MonodromyType:
    tag, witness = _shape(face, image)
    if witness is None:
        return _WITNESS_FREE_TYPES[tag]
    return MonodromyType(tag, tuple(_zz._dart(face, k) for k in witness))


def _build_monodromies(tri: Triangulation) -> typing.List[typing.Tuple[int, ...]]:
    """The z-monodromy of every face, as a 6-tuple of local dart indices.

    The position just before the zigzag through seed (e, F) next returns to
    F, at dart e', reads D^-1(e') on an edge of F, and no earlier position
    after the seed lies on one; so M(e) = D^-1(e').  Each orbit is walked
    backwards once, ``following[f]`` holding the next position in face f;
    a light backward pass first primes it with each face's first position
    on the orbit, the next visit after its last one.
    """
    kernel = _zz._kernel(tri)
    image = [0] * len(kernel.orbit_of)
    following = [0] * (len(image) // 6)
    for orbit in kernel.orbits:
        for p in reversed(orbit):
            following[p // 6] = p
        for p in reversed(orbit):
            f = p // 6
            image[p] = OMEGA_ROTATION_INVERSE[following[f] % 6]
            following[f] = p
    return list(zip(*[iter(image)] * 6))  # one tuple per face, six images at a time


def _monodromies(tri: Triangulation) -> typing.List[typing.Tuple[int, ...]]:
    """``_build_monodromies(tri)``, computed once per triangulation."""
    return _zz._cached(tri, "monodromies", _build_monodromies)


def z_monodromy(tri: Triangulation, face: Face) -> DartPermutation:
    """The z-monodromy of a face.

    Bijective, never maps a dart to its own negation, satisfies the negation
    law M(e) = e' => M(-e') = -e, and has no cycle longer than 3.
    """
    face = make_face(*face)
    if not tri.has_face(face):
        raise FaceNotFound(f"face {face!r} not in triangulation")
    return DartPermutation._of(face, _monodromies(tri)[_zz._face_index(tri, face)])


def classify(monodromy: DartPermutation) -> MonodromyType:
    """Match a z-monodromy against the seven shapes by table lookup.

    Shapes are relative to the face rotation D of the monodromy's face; they
    are mutually exclusive, and ``_SHAPES`` fixes the witness.
    """
    return _monodromy_type(monodromy.face, monodromy.image)


def is_two_disjoint_3cycles(permutation: DartPermutation) -> bool:
    """Whether the permutation is a product of two disjoint 3-cycles."""
    return permutation.cycle_type() == (3, 3)


def _build_face_types(tri: Triangulation) -> typing.Mapping[Face, MonodromyType]:
    return types.MappingProxyType({face: _monodromy_type(face, image)
                                   for face, image in zip(tri.faces, _monodromies(tri))})


def face_types(tri: Triangulation) -> typing.Mapping[Face, MonodromyType]:
    """Classified z-monodromy for every face, keyed in face order.

    Computed once per triangulation; the mapping is read-only because every
    caller shares it.
    """
    return _zz._cached(tri, "face_types", _build_face_types)
