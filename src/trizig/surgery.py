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
import typing
from dataclasses import dataclass

from .core import (OMEGA_ROTATION_INVERSE, OMEGA_SLOTS, Face, Triangulation,
                   _check_sum_inputs, _least_free, _prefix_numbers, _Surface, make_face)
from .errors import (InvalidMonodromyType, InvalidSpecialMap, MonodromyNotIdentity,
                     NotZKnotted, SelfSum)
from .monodromy import (_IDENTITY, DartPermutation, _monodromies, is_two_disjoint_3cycles,
                        z_monodromy)
from .zigzag import _face_index, is_z_knotted

# Decisions of the connected-sum table for faces of z-knotted triangulations.
ALL = "ALL"
EXISTS = "EXISTS"
NONE = "NONE"

_KNOTTED_TAGS = ("M1", "M2", "M3", "M4")

# The types ``SpecialMap`` takes as a pair, and as a sequence of pairs.
_PAIR_TYPES = frozenset((tuple, list))


@dataclass(frozen=True)
class SpecialMap:
    """A vertex identification between the boundaries of two faces.

    ``pairs`` lists (source vertex, target vertex), one pair per source
    vertex, sorted by source.  It is given as a tuple or list of pairs,
    each a tuple or list of two, and kept as a tuple of tuples, so equal
    maps compare and hash equal however they were given; any other
    ``pairs`` raises ``InvalidSpecialMap``.  The induced dart map satisfies
    g(-e) = -g(e) and conjugates the source face rotation to the target
    face rotation.
    """

    source_face: Face
    target_face: Face
    pairs: typing.Tuple[typing.Tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "source_face", make_face(*self.source_face))
        object.__setattr__(self, "target_face", make_face(*self.target_face))
        pairs = self.pairs
        try:
            # dict() would also take a string of two characters as a pair.
            forward = (dict(pairs) if type(pairs) in _PAIR_TYPES
                       and set(map(type, pairs)) <= _PAIR_TYPES else {})
            bijective = (len(pairs) == 3
                         and set(forward) == set(self.source_face)
                         and set(forward.values()) == set(self.target_face))
        except (TypeError, ValueError):  # no pairs, or an unhashable vertex
            bijective = False
        if not bijective:
            raise InvalidSpecialMap(
                f"{pairs!r} is not a bijection "
                f"{self.source_face} -> {self.target_face} as (source, target) pairs")
        object.__setattr__(self, "pairs", tuple(sorted(forward.items())))

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


# The six vertex-index permutations, in the order ``enumerate_special_maps``
# lists its maps: map k sends face[i] to other[_IMAGE_ORDER[k][i]].
_IMAGE_ORDER = tuple(itertools.permutations(range(3)))


def _special_map(face: Face, other: Face, k: int) -> SpecialMap:
    """Map k of ``enumerate_special_maps(face, other)``, built alone."""
    return SpecialMap(face, other, tuple(zip(face, [other[i] for i in _IMAGE_ORDER[k]])))


def enumerate_special_maps(face: Face, other: Face) -> typing.Tuple[SpecialMap, ...]:
    """All 6 special maps between two faces: map k sends face[i] to
    other[_IMAGE_ORDER[k][i]], so for a sorted ``other`` they are ordered by
    image triple."""
    return tuple(_special_map(face, other, k) for k in range(6))


def fresh_label_prefix(labels: typing.Iterable[str]) -> str:
    """The smallest "s<k>." prefix that starts no existing label."""
    return f"s{_least_free(_prefix_numbers(labels))}."


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
    never collide.  It is one ``core._Surface.glue`` on a copy of ``tri``,
    the path of every chain of sums, so the result is not validated again.
    Its Euler characteristic is the sum of the summands' minus 2; it is
    orientable iff both are.
    """
    # ``glue`` checks the rest, but on a copy of ``tri``.
    if tri is other_tri:
        raise SelfSum("summands must be two triangulation instances; "
                      "copy the triangulation to glue it with itself")
    surface = _Surface(tri)
    _added, fresh = surface.glue(face, other_tri, other_face, gluing, relabeling)
    return SumResult(surface.freeze(), fresh)


def gluing_condition(tri: Triangulation, face: Face,
                     other_tri: Triangulation, other_face: Face,
                     gluing: SpecialMap) -> bool:
    """Whether the glued monodromy product is two disjoint 3-cycles.

    For essential faces this is equivalent to the connected sum being
    z-knotted.
    """
    face, other_face = _check_sum_inputs(tri, face, other_tri, other_face, gluing)
    return _glues(z_monodromy(tri, face).image,
                  z_monodromy(other_tri, other_face).image, gluing)


def _dart_map(gluing: SpecialMap) -> typing.List[int]:
    """The dart map g of a special map: dart k of the source face goes to
    dart g[k] of the target face, in omega order."""
    slot = [gluing.target_face.index(target) for _source, target in gluing.pairs]
    return [OMEGA_SLOTS.index((slot[tail], slot[head])) for tail, head in OMEGA_SLOTS]


def _glues(monodromy: typing.Tuple[int, ...], other_monodromy: typing.Tuple[int, ...],
           gluing: SpecialMap) -> bool:
    """The gluing condition for the z-monodromies of the glued faces, given
    as 6-tuples of omega indices of the source and the target face."""
    g = _dart_map(gluing)
    product = tuple(g[monodromy[g.index(k)]] for k in other_monodromy)
    return is_two_disjoint_3cycles(DartPermutation._of(gluing.target_face, product))


def _transit(gluing: SpecialMap, other_monodromy: typing.Tuple[int, ...]) -> typing.List[int]:
    """How the glued patch routes the zigzags of the source face's host:
    the arc that entered the source face in place of seed j crosses the
    patch and leaves it as seed ``transit[j]`` left the source face.

    It steps from D^-1(j)'s edge into the patch as the target face's seed
    g(D^-1(j)) did, and the patch walk comes back to that face before seed
    D(M'(g(D^-1(j)))), so it leaves over M'(g(D^-1(j)))'s edge, as seed
    g^-1 of that did.  g commutes with the face rotation D, so transit[j] =
    g^-1(M'(D^-1(g(j)))), with M' ``other_monodromy``, the target face's
    z-monodromy in its patch.
    """
    g = _dart_map(gluing)
    return [g.index(other_monodromy[OMEGA_ROTATION_INVERSE[k]]) for k in g]


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
    f = _face_index(tri, face)
    face = tri.faces[f]
    if not is_z_knotted(tri):
        raise NotZKnotted("refinement is defined for z-knotted triangulations")
    if _monodromies(tri)[f] != _IDENTITY:
        raise MonodromyNotIdentity(
            f"face {face!r} does not have identity z-monodromy")
    tetrahedron = Triangulation(_TETRAHEDRON_FACES)
    target = _TETRAHEDRON_FACES[0]
    gluing = SpecialMap(face, target, tuple(zip(face, target)))
    return connected_sum(tri, face, tetrahedron, target, gluing)
