"""Connected sums of triangulations along faces, and when they stay z-knotted.

A special map identifies the boundaries of two triangular faces vertex by
vertex; combinatorially it is one of the 6 bijections between the vertex
triples.  The connected sum removes both faces and glues the boundaries
through the map, producing a triangulation of the connected-sum surface.
The induced dart bijection g commutes with negation and conjugates one face
rotation to the other, which makes the gluing condition

    g o M_F o g^-1 o M_F'   is two disjoint 3-cycles

the exact criterion for the sum of two triangulations with essential faces
to be z-knotted.
"""

import itertools
import re
import typing
from dataclasses import dataclass

from .core import (OMEGA_SLOTS, Face, Triangulation, _connected_sum,
                   euler_characteristic, make_face)
from .errors import (FaceNotFound, InvalidMonodromyType, InvalidSpecialMap,
                     LabelCollision, MonodromyNotIdentity, NotZKnotted, SelfSum)
from .monodromy import DartPermutation, is_two_disjoint_3cycles, z_monodromy
from .zigzag import is_z_knotted

# Decisions of the connected-sum table for faces of z-knotted triangulations.
ALL = "ALL"
EXISTS = "EXISTS"
NONE = "NONE"

_KNOTTED_TAGS = ("M1", "M2", "M3", "M4")


@dataclass(frozen=True)
class SpecialMap:
    """A vertex identification between the boundaries of two faces.

    ``pairs`` lists (source vertex, target vertex), one pair per source
    vertex, sorted by source.  The induced dart map satisfies g(-e) = -g(e)
    and conjugates the source face rotation to the target face rotation.
    """

    source_face: Face
    target_face: Face
    pairs: typing.Tuple[typing.Tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "source_face", make_face(*self.source_face))
        object.__setattr__(self, "target_face", make_face(*self.target_face))
        pairs = tuple(self.pairs)
        forward = dict(pairs)
        if (len(pairs) != 3
                or set(forward) != set(self.source_face)
                or set(forward.values()) != set(self.target_face)):
            raise InvalidSpecialMap(
                f"{pairs!r} is not a bijection "
                f"{self.source_face} -> {self.target_face}")
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))

    def vertex_inverse(self, w: str) -> str:
        for source, target in self.pairs:
            if target == w:
                return source
        raise InvalidSpecialMap(f"vertex {w!r} not in target face {self.target_face}")


@dataclass(frozen=True)
class SumResult:
    """A connected sum plus the bookkeeping needed to replay it.

    ``relabeling`` maps each non-glued vertex of the second summand to its
    fresh label; the glued vertices land on the vertices of the removed
    first-summand face through the special map.
    """

    triangulation: Triangulation
    relabeling: typing.Tuple[typing.Tuple[str, str], ...]


def enumerate_special_maps(face: Face, other: Face) -> typing.Tuple[SpecialMap, ...]:
    """All 6 special maps between two faces, ordered by image triple."""
    return tuple(
        SpecialMap(face, other, tuple(zip(face, image)))
        for image in itertools.permutations(other)
    )


_PREFIX = re.compile(r"s(\d+)\.")


def fresh_label_prefix(labels: typing.Iterable[str]) -> str:
    """The smallest "s<k>." prefix that starts no existing label."""
    match = _PREFIX.match
    taken = {int(found.group(1)) for label in labels
             if label[:1] == "s" and (found := match(label))}
    k = 0
    while k in taken:
        k += 1
    return f"s{k}."


def _check_sum_inputs(tri: Triangulation, face: Face,
                      other_tri: Triangulation, other_face: Face,
                      gluing: SpecialMap) -> typing.Tuple[Face, Face]:
    face = make_face(*face)
    other_face = make_face(*other_face)
    if tri is other_tri:
        raise SelfSum("summands must be two triangulation instances; "
                      "copy the triangulation to glue it with itself")
    if not tri.has_face(face):
        raise FaceNotFound(f"face {face!r} not in first summand")
    if not other_tri.has_face(other_face):
        raise FaceNotFound(f"face {other_face!r} not in second summand")
    if gluing.source_face != face or gluing.target_face != other_face:
        raise InvalidSpecialMap(
            f"special map {gluing.source_face} -> {gluing.target_face} does not "
            f"match the glued faces {face} -> {other_face}")
    return face, other_face


def connected_sum(tri: Triangulation, face: Face,
                  other_tri: Triangulation, other_face: Face,
                  gluing: SpecialMap, *,
                  relabeling: typing.Optional[typing.Mapping[str, str]] = None,
                  ) -> SumResult:
    """Glue two triangulations along a pair of faces.

    Both faces are removed; the second summand's vertices on ``other_face``
    are pulled back through the special map onto the first summand's face
    vertices, and its remaining vertices receive fresh labels: an explicit
    ``relabeling`` when replaying a recorded sum, else the old label behind
    the first "s<k>." prefix that starts no host label, so iterated sums
    never collide.  The result is built locally from the two checked
    summands (``core._connected_sum`` gives the argument), not validated
    again; its Euler characteristic is the sum of the summands' minus 2 and
    it is orientable iff both summands are.
    """
    face, other_face = _check_sum_inputs(tri, face, other_tri, other_face, gluing)
    glued = set(other_face)
    loose = [v for v in other_tri.vertices if v not in glued]
    if relabeling is None:
        prefix = fresh_label_prefix(tri.vertices)
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
    collisions = set(fresh.values()) & set(tri.vertices)
    if collisions:
        raise LabelCollision(
            f"fresh labels collide with existing vertices: {sorted(collisions)}")

    full = dict(fresh)
    for v in other_face:
        full[v] = gluing.vertex_inverse(v)
    result = _connected_sum(tri, face, other_tri, other_face, full)

    expected_chi = euler_characteristic(tri) + euler_characteristic(other_tri) - 2
    if euler_characteristic(result) != expected_chi:
        raise AssertionError("connected sum changed the Euler characteristic")
    return SumResult(result, tuple(sorted(fresh.items())))


def gluing_condition(tri: Triangulation, face: Face,
                     other_tri: Triangulation, other_face: Face,
                     gluing: SpecialMap) -> bool:
    """Whether the glued monodromy product is two disjoint 3-cycles.

    For essential faces this is equivalent to the connected sum being
    z-knotted.
    """
    face, other_face = _check_sum_inputs(tri, face, other_tri, other_face, gluing)
    monodromy = z_monodromy(tri, face).image
    other_monodromy = z_monodromy(other_tri, other_face).image
    # g: dart k of ``face`` -> dart g[k] of ``other_face``, in omega order.
    slot = [other_face.index(target) for _source, target in gluing.pairs]
    g = [OMEGA_SLOTS.index((slot[tail], slot[head])) for tail, head in OMEGA_SLOTS]
    product = tuple(g[monodromy[g.index(k)]] for k in other_monodromy)
    return is_two_disjoint_3cycles(DartPermutation._of(other_face, product))


def th4_decide(type_f: str, type_other: str) -> str:
    """How many of the 6 gluings of two z-knotted-type faces stay z-knotted.

    ALL: every special map yields a z-knotted sum; EXISTS: at least one does;
    NONE: none does.  M2 pairs with everything; identity monodromy pairs only
    with M2 or M3 (and then every map works); M3/M4 against M3/M4 admit at
    least one working map.
    """
    for tag in (type_f, type_other):
        if tag not in _KNOTTED_TAGS:
            raise InvalidMonodromyType(
                f"{tag!r} is not a z-knotted monodromy type (M1..M4)")
    tags = {type_f, type_other}
    if "M2" in tags:
        return ALL
    if "M1" in tags:
        return ALL if "M3" in tags else NONE
    return EXISTS


_TETRAHEDRON_FACES = (("1", "2", "3"), ("1", "2", "4"),
                      ("1", "3", "4"), ("2", "3", "4"))


def refine_identity_face(tri: Triangulation, face: Face) -> SumResult:
    """Replace an identity-monodromy face by three faces of shape M4.

    Glues a tetrahedron onto the face (sorted vertices onto sorted vertices);
    since every tetrahedron face has monodromy D^-1, the glued product is two
    disjoint 3-cycles for every map, so the result stays z-knotted, and the
    three new faces all classify as M4.
    """
    face = make_face(*face)
    if not tri.has_face(face):
        raise FaceNotFound(f"face {face!r} not in triangulation")
    if not is_z_knotted(tri):
        raise NotZKnotted("refinement is defined for z-knotted triangulations")
    if not z_monodromy(tri, face).is_identity:
        raise MonodromyNotIdentity(
            f"face {face!r} does not have identity z-monodromy")
    tetrahedron = Triangulation(_TETRAHEDRON_FACES)
    target = _TETRAHEDRON_FACES[0]
    gluing = SpecialMap(face, target, tuple(zip(face, target)))
    return connected_sum(tri, face, tetrahedron, target, gluing)
