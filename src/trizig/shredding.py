"""Z-knotted shredding: sum sphere patches onto faces until one zigzag remains.

Every face whose z-monodromy is M5, M6 or M7 blocks knottedness.  Each such
face can be repaired by a connected sum with a z-knotted sphere patch:

* M5/M6 faces have a monodromy that is itself two disjoint 3-cycles, so a
  patch carrying an identity-monodromy face works under every special map;
  the smallest such patch is the m1 sum of two 6-gonal bipyramids.
* M7 faces pair with an M3 face when the witness cycles are aligned; the
  3-gonal bipyramid provides one.

After a repair the patch's remaining faces are all locally z-knotted and the
host's locally z-knotted faces stay so, hence the count of bad faces strictly
decreases and the loop terminates in a z-knotted triangulation of the same
surface.  Every step is logged in a replayable certificate.

The same fact lets ``shred`` classify the input once.  Every later bad face
is one of the input's bad faces, and a face is bad iff its six seed
positions meet more than two zigzags.  So the loop keeps the zigzag step
table and orbit ids as int lists, re-walks after each sum only the orbits
through the glued faces, and walks the monodromy of only the face it
repairs next.
"""

import functools
import json
import typing
from dataclasses import dataclass

from .core import (OMEGA_ROTATION, OMEGA_ROTATION_INVERSE, Face, Triangulation,
                   euler_characteristic, make_face)
from .document import load_json, serialize
from .errors import (FaceNotFound, InvalidMonodromyType, MalformedDocument,
                     NoValidMap, TrizigError)
from .generators import bipyramid, example_sum
from .monodromy import _monodromy_type, face_types, z_monodromy
from .surgery import SpecialMap, _glues, connected_sum, enumerate_special_maps
from .zigzag import _EDGE_DARTS, _kernel, is_essential, is_z_knotted
# Unused here, but perfbench/instrument.py wraps these names in this module.
from .surgery import gluing_condition  # noqa: F401
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


@functools.lru_cache(maxsize=None)
def _load_patch(patch_id: str) -> Patch:
    if patch_id == PATCH_SPHERE_M1:
        tri = example_sum("m1", 3, 3)
        patch = Patch(patch_id, tri, make_face("a", "2", "3"), "M1")
    elif patch_id == PATCH_BP3_M3:
        patch = Patch(patch_id, bipyramid(3), make_face("a", "1", "2"), "M3")
    else:
        raise InvalidMonodromyType(f"unknown patch id {patch_id!r}")
    _verify_patch(patch)
    return patch


def _verify_patch(patch: Patch) -> None:
    tri = patch.triangulation
    if not is_z_knotted(tri):
        raise AssertionError(f"patch {patch.patch_id} is not z-knotted")
    if euler_characteristic(tri) != 2:
        raise AssertionError(f"patch {patch.patch_id} is not a sphere")
    types = face_types(tri)
    if types[patch.designated_face].tag != patch.designated_type:
        raise AssertionError(
            f"patch {patch.patch_id}: designated face classifies as "
            f"{types[patch.designated_face].tag}, expected {patch.designated_type}")
    if not all(is_essential(tri, face) for face in tri.faces):
        raise AssertionError(f"patch {patch.patch_id} has a non-essential face")


def patch_for(bad_type: str) -> Patch:
    """The repair patch for a face of type M5, M6 or M7."""
    if bad_type in ("M5", "M6"):
        return _load_patch(PATCH_SPHERE_M1)
    if bad_type == "M7":
        return _load_patch(PATCH_BP3_M3)
    raise InvalidMonodromyType(
        f"no patch for type {bad_type!r}; expected M5, M6 or M7")


def find_gluing_map(tri: Triangulation, face: Face, patch: Patch) -> SpecialMap:
    """The first special map (enumeration order) satisfying the gluing condition.

    A valid map always exists for the patches above; failure to find one is
    an implementation bug and raises NoValidMap.
    """
    return _first_gluing(face, z_monodromy(tri, face).image, patch)


def _first_gluing(face: Face, monodromy: typing.Tuple[int, ...],
                  patch: Patch) -> SpecialMap:
    """``find_gluing_map`` for a face of z-monodromy ``monodromy``."""
    other = z_monodromy(patch.triangulation, patch.designated_face).image
    for gluing in enumerate_special_maps(face, patch.designated_face):
        if _glues(monodromy, other, gluing):
            return gluing
    raise NoValidMap(
        f"no special map glues patch {patch.patch_id} onto face {face!r}; "
        f"this should be impossible")


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
        doc = {
            "format": CERTIFICATE_FORMAT,
            "final_zigzag_length": self.final_zigzag_length,
            "steps": [
                {
                    "face": list(step.face),
                    "bad_type": step.bad_type,
                    "patch": step.patch_id,
                    "map": dict(step.vertex_map),
                    "relabeling": dict(step.relabeling),
                }
                for step in self.steps
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ShredCertificate":
        doc = load_json(text)
        if not isinstance(doc, dict) or doc.get("format") != CERTIFICATE_FORMAT:
            raise MalformedDocument("missing or unsupported certificate format tag")
        try:
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


def _bad_faces(tri: Triangulation) -> typing.List[typing.Tuple[Face, str]]:
    """Faces classifying M5/M6/M7, in canonical face order."""
    types = face_types(tri)
    return [(face, types[face].tag)
            for face in tri.faces if types[face].tag in BAD_TAGS]


def _repair(tri: Triangulation, face: Face, monodromy: typing.Tuple[int, ...],
            ) -> typing.Tuple[Triangulation, ShredStep]:
    """Glue its patch onto a bad face of z-monodromy ``monodromy``."""
    bad_type = _monodromy_type(face, monodromy).tag
    patch = patch_for(bad_type)
    gluing = _first_gluing(face, monodromy, patch)
    result = connected_sum(tri, face, patch.triangulation,
                           patch.designated_face, gluing)
    step = ShredStep(face, bad_type, patch.patch_id, gluing.pairs,
                     result.relabeling)
    return result.triangulation, step


def _patch_faces(step: ShredStep) -> typing.List[Face]:
    """The faces a logged repair glued in: its patch's, relabeled."""
    patch = _load_patch(step.patch_id)
    label = dict(step.relabeling)
    label.update((target, source) for source, target in step.vertex_map)
    return [typing.cast(Face, tuple(sorted(label[v] for v in face)))
            for face in patch.triangulation.faces if face != patch.designated_face]


# The (forward, backward) omega indices of the darts on a face's edge, by
# the vertex slots of the edge in that face.
_DARTS_ON = {slots: (forward, backward) for slots, forward, backward in _EDGE_DARTS}


class _ZigzagState:
    """The zigzags of a surface under repair, kept current across sums.

    Starts as a copy of the ``zigzag._Kernel`` step table and orbit ids.
    Position 6 s + k is dart k of the face in slot s, as in the kernel, but
    slots never move: a removed face leaves a tombstone, which steps to
    itself, and the faces of each patch take new slots at the end.  Orbit ids
    carry no order; every re-walked orbit gets a fresh one.
    """

    __slots__ = ("faces", "slot", "step", "orbit_of", "next_id")

    def __init__(self, tri: Triangulation):
        kernel = _kernel(tri)
        self.faces: typing.List[typing.Optional[Face]] = list(tri.faces)
        self.slot = {face: s for s, face in enumerate(tri.faces)}
        self.step = list(kernel.step)
        self.orbit_of = list(kernel.orbit_of)
        self.next_id = len(kernel.orbits)

    def orbit_count(self, s: int) -> int:
        """How many zigzags meet the face in slot s: 2 iff it is locally
        z-knotted."""
        return len(set(self.orbit_of[6 * s:6 * s + 6]))

    def monodromy(self, s: int) -> typing.Tuple[int, ...]:
        """The z-monodromy of the face in slot s as in
        ``monodromy._build_monodromies``: seed k maps to D^-1 of the dart of
        the next position in the face."""
        step = self.step
        base = 6 * s
        image = []
        for p in range(base, base + 6):
            p = step[p]
            while not base <= p < base + 6:
                p = step[p]
            image.append(OMEGA_ROTATION_INVERSE[p - base])
        return tuple(image)

    def splice(self, tri: Triangulation, removed: Face,
               added: typing.Sequence[Face]) -> typing.Set[int]:
        """Follow the connected sum ``tri`` that replaced ``removed`` by ``added``.

        Only the steps from the new faces and from the three host faces
        across the glued edges change, so only the orbits through them are
        re-walked.  Returns the slots of the faces with a seed on one of them.
        """
        step, orbit_of, slot = self.step, self.orbit_of, self.slot
        edge_faces = tri.edge_faces
        gone = 6 * slot.pop(removed)
        self.faces[gone // 6] = None
        step[gone:gone + 6] = range(gone, gone + 6)
        changed = []
        for (low, high), _forward, _backward in _EDGE_DARTS:
            first, second = edge_faces[removed[low], removed[high]]
            changed.append(slot[first] if first in slot else slot[second])
        for face in added:
            changed.append(len(self.faces))
            slot[face] = len(self.faces)
            self.faces.append(face)
        step += [0] * (6 * len(added))
        orbit_of += [-1] * (6 * len(added))

        for s in changed:
            face, base = self.faces[s], 6 * s
            for (low, high), forward, backward in _EDGE_DARTS:
                u, v = face[low], face[high]
                first, second = edge_faces[u, v]
                other = second if first == face else first
                there, back = _DARTS_ON[other.index(u), other.index(v)]
                other_base = 6 * slot[other]
                step[base + forward] = other_base + OMEGA_ROTATION[there]
                step[base + backward] = other_base + OMEGA_ROTATION[back]

        fresh = self.next_id
        walked = []
        walk = walked.append
        for start in (6 * s + k for s in changed for k in range(6)):
            if orbit_of[start] >= fresh:
                continue
            orbit, p = self.next_id, start
            self.next_id += 1
            while orbit_of[p] < fresh:
                orbit_of[p] = orbit
                walk(p)
                p = step[p]
            if p != start:
                raise AssertionError("spliced step map failed to be a permutation")
        return {p // 6 for p in walked}


def shred_step(tri: Triangulation, face: Face) -> Triangulation:
    """Repair one face of type M5/M6/M7 by gluing its patch.

    The count of faces with types in {M5, M6, M7} strictly decreases: the
    patched face disappears, the patch's faces arrive locally z-knotted, and
    no locally z-knotted face of the host loses that property.
    """
    face = make_face(*face)
    mtype = face_types(tri).get(face)
    if mtype is None:
        raise FaceNotFound(f"face {face!r} not in triangulation")
    if mtype.tag not in BAD_TAGS:
        raise InvalidMonodromyType(
            f"face {face!r} has type {mtype.tag}, nothing to repair")
    return _repair(tri, face, z_monodromy(tri, face).image)[0]


def shred(tri: Triangulation) -> typing.Tuple[Triangulation, ShredCertificate]:
    """Construct a z-knotted shredding of the triangulation.

    Repeatedly repairs the least bad face in canonical order until no face
    classifies M5/M6/M7, then verifies the result twice over: every face must
    classify M1..M4 and the orbit count must be exactly one zigzag pair.
    A z-knotted input comes back unchanged with an empty certificate.

    The input is classified once.  By the lemma of ``shred_step`` the least
    bad face is the first of the input's bad faces still met by more than
    two zigzags, which ``_ZigzagState`` tells after each splice.  Each splice
    checks the lemma on every face whose zigzags it re-walked: a face not
    among the input's bad faces yet to come must be locally z-knotted.
    """
    steps = []
    current = tri
    bad = _bad_faces(tri)
    if bad:
        state = _ZigzagState(tri)
        pending = {face for face, _tag in bad}
        for face, _tag in bad:
            pending.remove(face)
            s = state.slot[face]
            if state.orbit_count(s) == 2:
                continue
            current, record = _repair(current, face, state.monodromy(s))
            steps.append(record)
            for touched in state.splice(current, face, _patch_faces(record)):
                if (state.orbit_count(touched) != 2
                        and state.faces[touched] not in pending):
                    raise AssertionError(
                        f"face {state.faces[touched]!r} stopped being locally "
                        f"z-knotted after repairing {face!r}")

    knotted = is_z_knotted(current)
    types_ok = not _bad_faces(current)
    if not (knotted and types_ok):
        raise AssertionError(
            f"shredding postcondition failed: z-knotted={knotted}, "
            f"all faces M1..M4={types_ok}")
    final_length = len(_kernel(current).orbits[0])
    return current, ShredCertificate(tuple(steps), final_length)


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

    Checks that every step applies, that the replayed result serializes
    byte-identically to the target, that the target is z-knotted, and that
    the recorded zigzag length matches.
    """
    problems = []
    current = source
    for i, step in enumerate(certificate.steps):
        try:
            patch = _load_patch(step.patch_id)
            gluing = SpecialMap(step.face, patch.designated_face, step.vertex_map)
            result = connected_sum(
                current, step.face, patch.triangulation, patch.designated_face,
                gluing, relabeling=dict(step.relabeling))
        except (TrizigError, ValueError) as exc:
            problems.append(f"step {i} does not apply: {exc}")
            break
        current = result.triangulation
    else:
        if serialize(current) != serialize(target):
            problems.append(
                f"replayed output differs from target: replay has "
                f"{len(current.faces)} face(s) vs {len(target.faces)}, first "
                f"differing face "
                f"{next(iter(sorted(set(current.faces) ^ set(target.faces))), None)}")
        if not is_z_knotted(target):
            problems.append("target is not z-knotted")
        else:
            actual = len(_kernel(target).orbits[0])
            if actual != certificate.final_zigzag_length:
                problems.append(
                    f"certificate records zigzag length "
                    f"{certificate.final_zigzag_length}, target has {actual}")
    return VerificationResult(not problems, tuple(problems))
