"""Z-knotted shredding: sum sphere patches onto faces until one zigzag remains.

Every face whose z-monodromy is M5, M6 or M7 blocks knottedness.  Each such
face can be repaired by a connected sum with a z-knotted sphere patch:

* M5/M6 faces have a monodromy that is itself two disjoint 3-cycles, so a
  patch carrying an identity-monodromy face works under every special map;
  the m1 sum of two 6-gonal bipyramids is used, though not the smallest:
  the 5-gonal bipyramid's M4 face {1, 2, a} repairs every M5 shape too.
* M7 faces pair with an M3 face when the witness cycles are aligned; the
  3-gonal bipyramid provides one.

After a repair the patch's remaining faces are all locally z-knotted and the
host's locally z-knotted faces stay so, hence the count of bad faces strictly
decreases and the loop terminates in a z-knotted triangulation of the same
surface.  Every step is logged in a replayable certificate.

The same fact lets ``shred`` decide every repair before it glues any.
Every later bad face is one of the input's bad faces, met by more than one
of the input's zigzag pairs once those through each repaired face are
joined, as a union-find (Tarjan, J. ACM 1975) keeps them; so the input's
atlas alone settles the list of faces to repair.  ``_repair``, the one
repair step, then walks the monodromy of only the face it repairs on
``zigzag._ZigzagState``, six entries per planned face linked along the
input atlas's orbits, and reads the gluing map off its patch's table.
That table is made once per patch: the gluing condition depends only on
the face's monodromy, one of the 15 valid images, and on the slot order of
the map, so the first map that satisfies it is a function of the image.
The glued map and the patch face's monodromy fix how the patch routes the
zigzags through the face (``surgery._transit``), so the splice rewires six
links and walks nothing, and no patch position ever enters the state.
"""

import functools
import json
import typing
from dataclasses import dataclass

from .core import Face, Triangulation, _Surface, euler_characteristic, make_face
from .document import _block, _quote, load_json
from .errors import InvalidMonodromyType, MalformedDocument, NoValidMap, TrizigError
from .generators import bipyramid, example_sum
from .monodromy import _SHAPES, _monodromies, _shape, face_types, z_monodromy
from .surgery import SpecialMap, _glues, _transit, enumerate_special_maps
from .zigzag import (_atlas, _face_index, _step_map, _walk, _ZigzagState, is_essential,
                     is_z_knotted)
# Unused here, but perfbench/instrument.py wraps these names in this module.
from .document import serialize  # noqa: F401
from .surgery import connected_sum, gluing_condition  # noqa: F401
from .zigzag import all_zigzags  # noqa: F401

CERTIFICATE_FORMAT = "tri-shred-cert/1"

BAD_TAGS = ("M5", "M6", "M7")

PATCH_SPHERE_M1 = "sphere-m1"
PATCH_BP3_M3 = "bp3-m3"


@dataclass(frozen=True)
class Patch:
    """A z-knotted sphere with one designated face of known monodromy type."""

    patch_id: str
    triangulation: Triangulation
    designated_face: Face
    designated_type: str


# The repair patch of each bad type: id, a function making the sphere, the
# designated face and its type.  M5 and M6 share one entry: one ``Patch``.
_SPHERE_M1 = (PATCH_SPHERE_M1, functools.partial(example_sum, "m1", 3, 3),
              ("2", "3", "a"), "M1")
_PATCHES = {"M5": _SPHERE_M1, "M6": _SPHERE_M1,
            "M7": (PATCH_BP3_M3, functools.partial(bipyramid, 3), ("1", "2", "a"), "M3")}


@functools.lru_cache(maxsize=None)
def _load_patch(entry) -> Patch:
    """The ``Patch`` of a ``_PATCHES`` entry, built and checked once."""
    patch_id, build, face, tag = entry
    tri = build()
    if not is_z_knotted(tri):
        raise AssertionError(f"patch {patch_id} is not z-knotted")
    if euler_characteristic(tri) != 2:
        raise AssertionError(f"patch {patch_id} is not a sphere")
    found = face_types(tri)[face].tag
    if found != tag:
        raise AssertionError(f"patch {patch_id}: designated face classifies as "
                             f"{found}, expected {tag}")
    if not all(is_essential(tri, other) for other in tri.faces):
        raise AssertionError(f"patch {patch_id} has a non-essential face")
    return Patch(patch_id, tri, face, tag)


def patch_for(bad_type: str) -> Patch:
    """The repair patch for a face of type M5, M6 or M7."""
    if not isinstance(bad_type, str) or bad_type not in _PATCHES:
        raise InvalidMonodromyType(
            f"no patch for type {bad_type!r}; expected M5, M6 or M7")
    return _load_patch(_PATCHES[bad_type])


@functools.lru_cache(maxsize=None)
def _gluings(patch: Patch) -> typing.Dict[typing.Tuple[int, ...], Face]:
    """The patch's gluing table: for each valid monodromy image in
    ``_SHAPES``, the designated-face vertices that a canonical face's sorted
    vertices go to under the first special map (``enumerate_special_maps``
    order) that satisfies the gluing condition.  Images that no map glues
    have no entry.

    ``_glues`` reads a map by vertex slots only, and a canonical face's sort
    order is its slot order, so the sorted designated face, as the source,
    gives every face's table."""
    face = patch.designated_face
    maps = enumerate_special_maps(make_face(*face), face)
    other = z_monodromy(patch.triangulation, face).image
    return {image: tuple(target for _source, target in gluing.pairs)
            for image in _SHAPES
            if (gluing := next((candidate for candidate in maps
                                if _glues(image, other, candidate)), None))}


def find_gluing_map(tri: Triangulation, face: Face, patch: Patch) -> SpecialMap:
    """The first special map (enumeration order) satisfying the gluing condition.

    ``face`` may list its vertices in any order; the map's source face is
    the sorted one, as ``shred_step`` glues it.  It is read off the patch's
    gluing table, as ``shred`` reads it.  A valid map always exists for the
    patches above; failure to find one is an implementation bug and raises
    NoValidMap.
    """
    f = _face_index(tri, face)
    return _first_gluing(tri.faces[f], _monodromies(tri)[f], patch)


def _first_gluing(face: Face, monodromy: typing.Tuple[int, ...],
                  patch: Patch) -> SpecialMap:
    """``find_gluing_map`` for a canonical face of z-monodromy ``monodromy``,
    read off the patch's gluing table."""
    targets = _gluings(patch).get(monodromy)
    if targets is None:
        raise NoValidMap(f"no special map glues patch {patch.patch_id} onto face "
                         f"{face!r}; this should be impossible")
    return SpecialMap(face, patch.designated_face, tuple(zip(face, targets)))


@dataclass(frozen=True)
class ShredStep:
    """One logged repair: which face, its type, the patch, map and relabeling."""

    face: Face
    bad_type: str
    patch_id: str
    vertex_map: typing.Tuple[typing.Tuple[str, str], ...]
    relabeling: typing.Tuple[typing.Tuple[str, str], ...]


@dataclass(frozen=True)
class ShredCertificate:
    """A replayable log of shredding surgeries.

    Replaying the steps from the input reproduces the output bit-exactly;
    the step count never exceeds the input's count of M5/M6/M7 faces.
    """

    steps: typing.Tuple[ShredStep, ...]
    final_zigzag_length: int

    def to_json(self) -> str:
        """The certificate's canonical text, ``json.dumps(doc, indent=2,
        sort_keys=True)`` and a newline, as ``document.serialize`` writes."""
        def mapping(pairs):
            return _block("{}", [f"{_quote(key)}: {_quote(value)}"
                                 for key, value in sorted(dict(pairs).items())], 3)

        steps = [_block("{}", [
            f'"bad_type": {_quote(step.bad_type)}',
            f'"face": {_block("[]", list(map(_quote, step.face)), 3)}',
            f'"map": {mapping(step.vertex_map)}',
            f'"patch": {_quote(step.patch_id)}',
            f'"relabeling": {mapping(step.relabeling)}'], 2) for step in self.steps]
        return _block("{}", [
            f'"final_zigzag_length": {json.dumps(self.final_zigzag_length)}',
            f'"format": {_quote(CERTIFICATE_FORMAT)}',
            f'"steps": {_block("[]", steps, 1)}'], 0) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ShredCertificate":
        doc = load_json(text)
        if not isinstance(doc, dict) or doc.get("format") != CERTIFICATE_FORMAT:
            raise MalformedDocument("missing or unsupported certificate format tag")
        try:
            if not isinstance(doc["steps"], list) or not all(
                    isinstance(entry["face"], list) for entry in doc["steps"]):
                raise TypeError("steps and step faces must be JSON arrays")
            steps = tuple(
                ShredStep(
                    face=make_face(*entry["face"]),
                    bad_type=entry["bad_type"],
                    patch_id=entry["patch"],
                    vertex_map=tuple(sorted(entry["map"].items())),
                    relabeling=tuple(sorted(entry["relabeling"].items())),
                )
                for entry in doc["steps"]
            )
            if not all(isinstance(text, str) for step in steps
                       for group in ((step.bad_type, step.patch_id), step.face)
                       + step.vertex_map + step.relabeling for text in group):
                raise TypeError("types, patch ids and vertex labels must be text")
            length = doc["final_zigzag_length"]
            if type(length) is not int:  # JSON true is a bool, an int subclass
                raise TypeError("final_zigzag_length must be an integer")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedDocument(f"malformed certificate: {exc}") from None
        return cls(steps, length)


def _root(parent: typing.List[int], c: int) -> int:
    """The root of class c in the union-find forest ``parent``, halving its path."""
    while parent[c] != c:
        parent[c] = c = parent[parent[c]]
    return c


def _repair(surface: _Surface, state: _ZigzagState, i: int, face: Face) -> ShredStep:
    """Repair ``face`` on ``surface`` with the patch of its type, and follow
    the sum on ``state``, where ``face`` is listed face i.

    The face's monodromy is walked on ``state``, and its type and the first
    gluing map are read off it; a face of type M1..M4 has no patch and
    raises before anything is glued.  The transit of the map actually
    glued, read with the patch face's monodromy, says where each zigzag
    that entered the face leaves the patch, so the splice rewires the six
    positions just before the face's seeds and walks nothing.  It counts
    the zigzags through the patch: the k through the repaired face, cut and
    rejoined, must make one pair, so a map that fails the gluing condition
    is refused here.  Orbits that miss the face do not move, so the zigzag
    count falls by k - 2 and every face met by one pair stays so: the
    module docstring's lemma, by which the count of M5/M6/M7 faces strictly
    decreases.  Nothing else checks the state against the glued surface;
    ``shred``'s closing checks verify the glue.
    """
    monodromy = state.monodromy(i)
    bad_type = _shape(face, monodromy)[0]
    patch = patch_for(bad_type)
    gluing = _first_gluing(face, monodromy, patch)
    _added, fresh = surface.glue(face, patch.triangulation, patch.designated_face, gluing)
    other = z_monodromy(patch.triangulation, patch.designated_face).image
    through = state.splice(i, monodromy, _transit(gluing, other))
    if through != 2:
        raise AssertionError(
            f"repairing {face!r} left {through} zigzags through the patch, "
            f"not one pair")
    return ShredStep(face, bad_type, patch.patch_id, gluing.pairs, fresh)


def shred_step(tri: Triangulation, face: Face) -> Triangulation:
    """Repair one face of type M5/M6/M7 by gluing its patch (``_repair``)."""
    f, surface = _face_index(tri, face), _Surface(tri)
    _repair(surface, _ZigzagState(_walk(_step_map(tri.across))[0], [f]), 0, tri.faces[f])
    return surface.freeze()


def shred(tri: Triangulation) -> typing.Tuple[Triangulation, ShredCertificate]:
    """Construct a z-knotted shredding of the triangulation.

    Repeatedly repairs the least bad face in canonical order until no face
    classifies M5/M6/M7, then verifies the result twice over: every face's
    monodromy must match one of M1..M4 and the orbit count must be exactly
    one zigzag pair.  A z-knotted input comes back unchanged with an empty
    certificate.

    It runs in two phases.  The plan comes first: the input is classified
    once, and by the module docstring's lemma, which ``_repair`` checks at
    each step, the least bad face is the first of the input's bad faces
    whose zigzag pairs are not yet joined into one.  So a union-find over
    the input's zigzag orbits, each starting in its pair's class, is asked
    once per bad face in canonical order, for the roots of the face's six
    seeds; a face with more than one root is planned, and its roots are
    joined.  Once they are all one class, no bad face is left and planning
    stops.  Then each planned face is repaired in turn on one
    ``zigzag._ZigzagState`` linked off the atlas's orbits with the planned
    faces' indices, so a monodromy walks only their positions and no step
    map of the input is read again.  A z-knotted input plans nothing and is
    not copied.  All patches are glued onto one ``core._Surface``, frozen once
    at the end; its distinct monodromies, at most 15, are matched against
    the shape table without building a ``MonodromyType`` per face.
    The recorded zigzag length is 2E = 3F, as ``is_z_knotted`` checks that
    the zigzag runs every edge twice.
    """
    atlas, plan = _atlas(tri), []
    # Each orbit starts in its pair's class, named by the lesser orbit.
    parent = [min(o, partner) for o, partner in enumerate(atlas._partners)]
    classes = atlas.pair_count
    for f, mtype in enumerate(face_types(tri).values()):
        if classes == 1:
            break
        if mtype.tag in BAD_TAGS:
            roots = {_root(parent, o) for o in atlas._orbit_of[6 * f:6 * f + 6]}
            if len(roots) > 1:
                plan.append(f)
                for root in roots:
                    parent[root] = min(roots)
                classes -= len(roots) - 1
    steps, current = [], tri
    if plan:
        surface, state = _Surface(tri), _ZigzagState(atlas._orbits, plan)
        steps = [_repair(surface, state, i, tri.faces[f]) for i, f in enumerate(plan)]
        current = surface.freeze()

    knotted = is_z_knotted(current)
    images = _monodromies(current)
    distinct = set(images)
    if not distinct <= _SHAPES.keys():  # ``_shape`` raises on the first such face
        for face, image in zip(current.faces, images):
            _shape(face, image)
    types_ok = all(_SHAPES[image][0] not in BAD_TAGS for image in distinct)
    if not (knotted and types_ok):
        raise AssertionError(
            f"shredding postcondition failed: z-knotted={knotted}, "
            f"all faces M1..M4={types_ok}")
    return current, ShredCertificate(tuple(steps), 3 * len(current.faces))


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a certificate replay; falsy when any problem was found."""

    ok: bool
    problems: typing.Tuple[str, ...]

    def __bool__(self):
        return self.ok


def verify_certificate(source: Triangulation, certificate: ShredCertificate,
                       target: Triangulation) -> VerificationResult:
    """Replay a certificate and compare against the claimed output.

    Checks that every step applies with the patch its recorded type takes,
    that the replayed result has the target's faces and vertices (the two
    tuples a document serializes, so the documents would be byte-identical),
    that the target is z-knotted, and that the recorded zigzag length
    matches.  The steps are replayed on one ``core._Surface``.  A step's
    ``bad_type`` is checked against its patch, not against the face's type
    then: an M5 step recorded as M6 (the same patch) still verifies, as the
    replay keeps no zigzag state.
    """
    problems = []
    surface = _Surface(source)
    for i, step in enumerate(certificate.steps):
        try:
            patch = patch_for(step.bad_type)
            if patch.patch_id != step.patch_id:
                problems.append(f"step {i} records patch {step.patch_id!r}, but a "
                                f"{step.bad_type} face takes {patch.patch_id!r}")
                break
            gluing = SpecialMap(step.face, patch.designated_face, step.vertex_map)
            surface.glue(step.face, patch.triangulation, patch.designated_face,
                         gluing, dict(step.relabeling))
        except (TrizigError, ValueError) as exc:
            problems.append(f"step {i} does not apply: {exc}")
            break
    else:
        replayed = sorted(surface.slot)
        if (replayed, sorted(surface.vertices)) != (list(target.faces), list(target.vertices)):
            problems.append(
                f"replayed output differs from target: replay has "
                f"{len(replayed)} face(s) vs {len(target.faces)}, first "
                f"differing face "
                f"{next(iter(sorted(set(replayed) ^ set(target.faces))), None)}")
        if not is_z_knotted(target):
            problems.append("target is not z-knotted")
        else:
            actual = 3 * len(target.faces)
            if actual != certificate.final_zigzag_length:
                problems.append(
                    f"certificate records zigzag length "
                    f"{certificate.final_zigzag_length}, target has {actual}")
    return VerificationResult(not problems, tuple(problems))
