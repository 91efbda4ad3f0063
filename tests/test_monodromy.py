"""Z-monodromy values, the seven-shape classification, and its laws."""

import itertools
import re

import pytest

import trizig as tz
from conftest import face_type, naive_monodromy
from trizig.core import OMEGA_NEGATION, Dart
from trizig.errors import FaceNotFound, UnclassifiableMonodromy
from trizig.monodromy import DartPermutation, MonodromyType

KNOTTED_TAGS = ("M1", "M2", "M3", "M4")


def test_bp3_monodromy_dart_map():
    # The worked values: 12->1a, a2->12, 2a->a1 and their negation mates.
    face = ("1", "2", "a")
    assert tz.z_monodromy(tz.bipyramid(3), face) == DartPermutation(face, {
        Dart("1", "2"): Dart("1", "a"), Dart("a", "2"): Dart("1", "2"),
        Dart("2", "a"): Dart("a", "1"), Dart("a", "1"): Dart("2", "1"),
        Dart("2", "1"): Dart("2", "a"), Dart("1", "a"): Dart("a", "2")})


def test_simple_zigzag_families_have_inverse_rotation_monodromy():
    for tri in (tz.platonic("tetrahedron"), tz.platonic("octahedron"),
                tz.platonic("icosahedron"), tz.torus_grid(3, 3),
                tz.projective_plane_fig5()):
        for face in tri.faces:
            rotation = DartPermutation.rotation(face)
            assert tz.z_monodromy(tri, face) == rotation.compose(rotation)  # D^3 = 1


def test_identity_monodromy_in_the_m1_sum():
    m = tz.z_monodromy(tz.example_sum("m1", 3, 3), ("2", "3", "a"))
    assert m.is_identity


def test_classification_goldens():
    cases = [
        (tz.bipyramid(3), ("1", "2", "a"), "M3"),
        (tz.bipyramid(5), ("1", "2", "a"), "M4"),
        (tz.bipyramid(8), ("1", "2", "a"), "M5"),
        (tz.bipyramid(6), ("1", "2", "a"), "M7"),
        (tz.example_sum("m1", 3, 3), ("2", "3", "a"), "M1"),
        (tz.example_sum("m2", 1, 1), ("1", "2", "b"), "M2"),
        (tz.example_sum("m6", 1, 1), ("1", "2", "b"), "M6"),
    ]
    for tri, face, expected in cases:
        assert face_type(tri, face).tag == expected


def test_witness_reproduces_the_monodromy(full_corpus):
    for tri in full_corpus[:60]:
        for face in tri.faces:
            monodromy = tz.z_monodromy(tri, face)
            mtype = tz.classify(monodromy)
            assert mtype.expand(face) == monodromy
            if mtype.tag in ("M1", "M2", "M5"):
                assert mtype.witness is None
            else:
                assert mtype.witness is not None


def test_witness_is_a_rotation_cycle():
    # M3/M4/M7 witnesses are cycles of the rotation; M6 of its inverse.
    for tri, face, cycle_source in [
        (tz.bipyramid(3), ("1", "2", "a"), "rotation"),
        (tz.bipyramid(5), ("1", "2", "a"), "rotation"),
        (tz.bipyramid(6), ("1", "2", "a"), "rotation"),
        (tz.example_sum("m6", 1, 1), ("1", "2", "b"), "inverse"),
    ]:
        mtype = face_type(tri, face)
        e1, e2, e3 = mtype.witness
        if cycle_source == "rotation":
            assert tz.face_rotation(face, e1) == e2
            assert tz.face_rotation(face, e2) == e3
        else:
            assert tz.face_rotation(face, e2) == e1
            assert tz.face_rotation(face, e3) == e2


def test_lemma3_properties(full_corpus):
    for tri in full_corpus[:80]:
        for face in tri.faces:
            m = tz.z_monodromy(tri, face)
            assert sorted(m.image) == list(range(6))  # bijective
            for k, image in enumerate(m.image):
                assert image != OMEGA_NEGATION[k]
                assert m.image[OMEGA_NEGATION[image]] == OMEGA_NEGATION[k]  # negation law
            assert max(len(c) for c in m.cycles()) <= 3


def test_monodromy_matches_naive_stepping(named_corpus, random_corpus):
    triangulations = list(named_corpus.values()) + random_corpus[:20]
    for tri in triangulations:
        for face in tri.faces:
            assert tz.z_monodromy(tri, face) == naive_monodromy(tri, face)


def test_monodromy_face_not_found():
    # Every caller taking a face argument resolves it the same way: in any
    # vertex order, and with the same errors for an absent, a degenerate
    # and a wrong-length face.
    bp3 = tz.bipyramid(3)
    for call, tri, face in ((tz.z_monodromy, bp3, ("1", "2", "a")),
                            (tz.zigzags_of_face, bp3, ("1", "2", "a")),
                            (tz.is_locally_z_knotted, bp3, ("1", "2", "a")),
                            (tz.is_essential, bp3, ("1", "2", "a")),
                            (tz.shred_step, tz.bipyramid(8), ("1", "2", "a")),
                            (tz.refine_identity_face, tz.example_sum("m1", 3, 3),
                             ("2", "3", "a"))):
        assert call(tri, face[::-1]) == call(tri, face)
        with pytest.raises(FaceNotFound,
                           match=re.escape("face ('1', '2', '9') not in triangulation")):
            call(tri, ("1", "2", "9"))
        with pytest.raises(ValueError, match="degenerate face"):
            call(tri, ("1", "1", "a"))
        with pytest.raises(TypeError):
            call(tri, ("1", "2"))


def test_classify_rejects_shapeless_permutation():
    face = ("1", "2", "a")
    negate_all = DartPermutation(face, {d: -d for d in tz.omega(face)})
    with pytest.raises(UnclassifiableMonodromy):
        tz.classify(negate_all)


def test_classify_never_fails_on_corpus(full_corpus):
    for tri in full_corpus:
        tags = {mtype.tag for mtype in tz.face_types(tri).values()}
        assert tags <= {"M1", "M2", "M3", "M4", "M5", "M6", "M7"}


def test_face_types_is_computed_once_and_read_only():
    tri = tz.bipyramid(8)
    types = tz.face_types(tri)
    with pytest.raises(TypeError):
        types[tri.faces[0]] = types[tri.faces[1]]
    assert list(types) == list(tri.faces)
    assert dict(tz.face_types(tri)) == dict(types)


def test_witness_free_types_are_shared(full_corpus):
    shared = {}
    for tri in full_corpus:
        for face, mtype in tz.face_types(tri).items():
            if mtype.tag in ("M1", "M2", "M5"):
                assert mtype == MonodromyType(mtype.tag)
                assert shared.setdefault(mtype.tag, mtype) is mtype
            else:
                assert mtype.witness is not None
                assert mtype == tz.classify(tz.z_monodromy(tri, face))
    assert set(shared) == {"M1", "M2", "M5"}


def test_is_two_disjoint_3cycles():
    face = ("1", "2", "a")
    rotation = DartPermutation.rotation(face)
    assert not tz.is_two_disjoint_3cycles(DartPermutation.identity(face))
    assert tz.is_two_disjoint_3cycles(rotation)
    m = tz.z_monodromy(tz.bipyramid(3), face)
    assert tz.is_two_disjoint_3cycles(rotation.compose(m))


def _monodromy_criterion(tri, face):
    # The algebraic criterion: D o M is two disjoint 3-cycles.
    rotation = DartPermutation.rotation(face)
    return tz.is_two_disjoint_3cycles(rotation.compose(tz.z_monodromy(tri, face)))


def test_local_knottedness_criterion_examples():
    face = ("1", "2", "a")
    assert _monodromy_criterion(tz.bipyramid(3), face)
    assert not _monodromy_criterion(tz.bipyramid(8), face)
    assert not _monodromy_criterion(tz.bipyramid(6), face)


def test_local_knottedness_criterion_agrees_with_orbit_count(full_corpus):
    for tri in full_corpus[:60]:
        for face in tri.faces:
            assert _monodromy_criterion(tri, face) == \
                tz.is_locally_z_knotted(tri, face)


def test_types_m1_to_m4_iff_locally_z_knotted(full_corpus):
    for tri in full_corpus[:60]:
        for face, mtype in tz.face_types(tri).items():
            assert (mtype.tag in KNOTTED_TAGS) == tz.is_locally_z_knotted(tri, face)


def test_face_zigzag_count_by_type(full_corpus):
    # Observed correspondence: 2 <-> M1..M4, 4 <-> M6/M7, 6 <-> M5.
    expected = {"M1": 2, "M2": 2, "M3": 2, "M4": 2, "M5": 6, "M6": 4, "M7": 4}
    for tri in full_corpus[:40]:
        for face, mtype in tz.face_types(tri).items():
            assert len(tz.zigzags_of_face(tri, face)) == expected[mtype.tag]


def test_bipyramid_family_law():
    for n in range(3, 17):
        if n % 2:
            k = (n - 1) // 2
            expected = "M3" if k % 2 else "M4"
        else:
            k = n // 2
            expected = "M5" if k % 2 == 0 else "M7"
        tri = tz.bipyramid(n)
        tags = {mtype.tag for mtype in tz.face_types(tri).values()}
        assert tags == {expected}, (n, tags)


def test_dart_permutation_algebra():
    face = ("1", "2", "a")
    rotation = DartPermutation.rotation(face)
    assert rotation.compose(rotation).compose(rotation).is_identity
    assert rotation.cycle_type() == (3, 3)
    assert DartPermutation.identity(face).cycle_type() == (1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        DartPermutation(face, {d: tz.omega(face)[0] for d in tz.omega(face)})
    other = DartPermutation.rotation(("1", "2", "b"))
    with pytest.raises(ValueError):
        rotation.compose(other)


def _naive_cycles(mapping, darts):
    """The cycles of a dart mapping, each from its first dart in ``darts``
    order, in the order of those, walked one dart at a time."""
    cycles, seen = [], set()
    for start in darts:
        if start not in seen:
            cycle = [start]
            while mapping[cycle[-1]] != start:
                cycle.append(mapping[cycle[-1]])
            seen.update(cycle)
            cycles.append(tuple(cycle))
    return tuple(cycles)


def test_expand_refuses_an_unknown_tag_and_a_missing_witness():
    face = ("1", "2", "a")
    with pytest.raises(ValueError, match="unknown monodromy tag 'M8'"):
        MonodromyType("M8").expand(face)
    with pytest.raises(ValueError, match="type M3 requires a witness"):
        MonodromyType("M3").expand(face)


def test_identity_permutation_repr_and_hash():
    face = ("1", "2", "a")
    identity = DartPermutation.identity(face)
    assert repr(identity) == "DartPermutation[id]"
    same = DartPermutation(face, {dart: dart for dart in tz.omega(face)})
    assert identity == same and hash(identity) == hash(same)
    assert identity != DartPermutation.rotation(face)
    assert len({identity, same, DartPermutation.rotation(face)}) == 2


def test_cycles_match_a_naive_walk_over_all_permutations():
    # Every permutation of one face's darts, given as a dart mapping, against
    # a walk of the mapping itself; 6! / (3 * 3 * 2) = 40 of them are two
    # disjoint 3-cycles.
    face = ("1", "2", "a")
    darts = tz.omega(face)
    two_3cycles = 0
    for images in itertools.permutations(darts):
        mapping = dict(zip(darts, images))
        permutation = DartPermutation(face, mapping)
        cycles = _naive_cycles(mapping, darts)
        lengths = tuple(sorted(map(len, cycles), reverse=True))
        assert permutation.cycles() == cycles
        assert permutation.cycle_type() == lengths
        assert tz.is_two_disjoint_3cycles(permutation) == (lengths == (3, 3))
        two_3cycles += lengths == (3, 3)
    assert two_3cycles == 40
