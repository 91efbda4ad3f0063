"""Special maps, connected sums, the gluing criterion, and the sum table."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import trizig as tz
from conftest import face_type
from trizig import core, surgery
from trizig.errors import (FaceNotFound, InvalidMonodromyType, InvalidSpecialMap,
                           LabelCollision, MonodromyNotIdentity, NotZKnotted,
                           SelfSum)
from trizig.surgery import _prefix_numbers, fresh_label_prefix


def test_enumerate_special_maps_order():
    maps = tz.enumerate_special_maps(("1", "2", "3"), ("4", "5", "6"))
    assert len(maps) == 6
    first = dict(maps[0].pairs)
    assert first["1"] == "4"
    assert first["2"] == "5"
    assert first["3"] == "6"
    images = [tuple(dict(g.pairs)[v] for v in ("1", "2", "3")) for g in maps]
    assert images == sorted(images)
    assert len(set(images)) == 6
    # Map k is the one built from entry k of the permutation table that
    # random_sphere draws from, so the draw order follows this order.
    assert len(surgery._IMAGE_ORDER) == 6
    for face, other in ((("1", "2", "3"), ("4", "5", "6")),
                        (("a", "b", "c"), ("c", "a", "b"))):
        maps = tz.enumerate_special_maps(face, other)
        assert [tuple(dict(g.pairs)[v] for v in face) for g in maps] == list(
            itertools.permutations(other))
        for k, order in enumerate(surgery._IMAGE_ORDER):
            image = [other[i] for i in order]
            assert maps[k] == tz.SpecialMap(face, other, tuple(zip(face, image)))
            assert maps[k] == surgery._special_map(face, other, k)


def test_special_map_dart_action():
    face, other = ("1", "2", "a"), ("4", "5", "6")
    for g in tz.enumerate_special_maps(face, other):
        vertex = dict(g.pairs)
        image = {d: tz.Dart(vertex[d.tail], vertex[d.head]) for d in tz.omega(face)}
        assert sorted(image.values()) == sorted(tz.omega(other))
        for dart in tz.omega(face):
            assert image[-dart] == -image[dart]
        # conjugates one face rotation to the other
        for dart in tz.omega(face):
            lhs = image[tz.face_rotation(face, dart)]
            rhs = tz.face_rotation(other, image[dart])
            assert lhs == rhs


def test_special_map_rejects_non_bijections():
    with pytest.raises(InvalidSpecialMap):
        tz.SpecialMap(("1", "2", "3"), ("4", "5", "6"),
                      (("1", "4"), ("2", "4"), ("3", "6")))
    with pytest.raises(InvalidSpecialMap):
        tz.SpecialMap(("1", "2", "3"), ("4", "5", "6"),
                      (("1", "4"), ("2", "5"), ("9", "6")))
    # a repeated source is rejected even when its last pair would complete
    # a bijection
    with pytest.raises(InvalidSpecialMap):
        tz.SpecialMap(("1", "2", "3"), ("4", "5", "6"),
                      (("1", "5"), ("2", "5"), ("3", "6"), ("1", "4")))


def test_vertex_inverse_refuses_a_vertex_off_the_target_face():
    g = tz.enumerate_special_maps(("1", "2", "3"), ("4", "5", "6"))[0]
    assert [g.vertex_inverse(w) for w in ("4", "5", "6")] == ["1", "2", "3"]
    with pytest.raises(InvalidSpecialMap, match="'zz' not in target face"):
        g.vertex_inverse("zz")


def test_special_map_keeps_its_pairs_as_tuples():
    face, other = ("1", "2", "3"), ("a", "b", "c")
    given = tz.SpecialMap(face, other, (("1", "a"), ("2", "b"), ("3", "c")))
    for pairs in ([["1", "a"], ["2", "b"], ["3", "c"]], [("3", "c"), ("1", "a"), ("2", "b")],
                  (["2", "b"], ("3", "c"), ["1", "a"])):
        gluing = tz.SpecialMap(face, other, pairs)
        assert gluing.pairs == given.pairs
        assert all(pair.__class__ is tuple for pair in gluing.pairs)
        assert gluing == given and hash(gluing) == hash(given)
    # Strings of two characters, longer or shorter entries, and no sequence
    # of pairs at all are no pairs.
    for pairs in (("1a", "2b", "3c"), ["1a", "2b", "3c"], ("10a", "2b", "3c"),
                  (("1", "a", "x"), ("2", "b"), ("3", "c")), (("1",), ("2", "b"), ("3", "c")),
                  5, None, "1a2b3c", {"1": "a", "2": "b", "3": "c"},
                  iter([("1", "a"), ("2", "b"), ("3", "c")])):
        with pytest.raises(InvalidSpecialMap):
            tz.SpecialMap(face, other, pairs)
    # A pair of an unhashable vertex is no bijection onto the face.
    with pytest.raises(InvalidSpecialMap):
        tz.SpecialMap(face, other, (("1", ["a"]), ("2", "b"), ("3", "c")))
    with pytest.raises(InvalidSpecialMap):
        tz.SpecialMap(face, other, ((["1"], "a"), ("2", "b"), ("3", "c")))


def test_connected_sum_of_two_bp3():
    first, second = tz.bipyramid(3), tz.bipyramid(3)
    face = ("1", "2", "a")
    for g in tz.enumerate_special_maps(face, face):
        result = tz.connected_sum(first, face, second, face, g)
        tri = result.triangulation
        assert len(tri.vertices) == 7
        assert len(tri.edges) == 15
        assert len(tri.faces) == 10
        assert tz.euler_characteristic(tri) == 2
        assert set(dict(result.relabeling)) == {"3", "b"}


def test_connected_sum_chi_and_orientability(named_corpus):
    cases = [
        (named_corpus["torus_3_3"], ("0.0", "0.1", "1.1"),
         named_corpus["bp5"], ("1", "2", "a")),
        (named_corpus["projective_plane"], ("a", "b", "d"),
         named_corpus["bp3"], ("1", "2", "a")),
    ]
    for first, face1, second, face2 in cases:
        g = tz.enumerate_special_maps(face1, face2)[0]
        out = tz.connected_sum(first, face1, second, face2, g).triangulation
        assert tz.euler_characteristic(out) == (
            tz.euler_characteristic(first) + tz.euler_characteristic(second) - 2)
        assert tz.is_orientable(out) == (
            tz.is_orientable(first) and tz.is_orientable(second))


def test_connected_sum_errors():
    bp3 = tz.bipyramid(3)
    other = tz.bipyramid(3)
    face = ("1", "2", "a")
    g = tz.enumerate_special_maps(face, face)[0]
    with pytest.raises(SelfSum):
        tz.connected_sum(bp3, face, bp3, face, g)
    with pytest.raises(FaceNotFound):
        tz.connected_sum(bp3, ("1", "2", "9"), other, face,
                         tz.SpecialMap(("1", "2", "9"), face,
                                       (("1", "1"), ("2", "2"), ("9", "a"))))
    with pytest.raises(FaceNotFound, match="second summand"):
        tz.connected_sum(bp3, face, other, ("1", "2", "9"),
                         tz.SpecialMap(face, ("1", "2", "9"),
                                       (("1", "1"), ("2", "2"), ("a", "9"))))
    wrong_face = tz.SpecialMap(("1", "2", "b"), face,
                               (("1", "1"), ("2", "2"), ("b", "a")))
    with pytest.raises(InvalidSpecialMap):
        tz.connected_sum(bp3, face, other, face, wrong_face)


def test_self_sum_is_refused_before_the_face_and_map_checks():
    bp3 = tz.bipyramid(3)
    face, absent = ("1", "2", "a"), ("1", "2", "9")
    cases = [
        ((absent, face, tz.SpecialMap(absent, face, (("1", "1"), ("2", "2"), ("9", "a")))),
         FaceNotFound),
        ((face, absent, tz.SpecialMap(face, absent, (("1", "1"), ("2", "2"), ("a", "9")))),
         FaceNotFound),
        ((face, face, tz.SpecialMap(("1", "2", "b"), face,
                                    (("1", "1"), ("2", "2"), ("b", "a")))),
         InvalidSpecialMap),
        ((("1", "1", "a"), face, tz.enumerate_special_maps(face, face)[0]), ValueError),
    ]
    for (first, second, gluing), error in cases:
        with pytest.raises(SelfSum):
            tz.connected_sum(bp3, first, bp3, second, gluing)
        with pytest.raises(error):
            tz.connected_sum(bp3, first, tz.Triangulation(bp3), second, gluing)
    # The gluing condition reads two monodromies; one instance may give both.
    g = tz.enumerate_special_maps(face, face)[0]
    assert (tz.gluing_condition(bp3, face, bp3, face, g)
            == tz.gluing_condition(bp3, face, tz.Triangulation(bp3), face, g))


def test_connected_sum_relabeling_controls():
    bp3, other = tz.bipyramid(3), tz.bipyramid(3)
    face = ("1", "2", "a")
    g = tz.enumerate_special_maps(face, face)[0]
    explicit = tz.connected_sum(bp3, face, other, face, g,
                                relabeling={"3": "z", "b": "w"})
    assert set(explicit.triangulation.vertices) == {"1", "2", "3", "a", "b", "z", "w"}
    with pytest.raises(LabelCollision):
        tz.connected_sum(bp3, face, other, face, g, relabeling={"3": "3", "b": "w"})
    with pytest.raises(LabelCollision):
        tz.connected_sum(bp3, face, other, face, g, relabeling={"3": "z"})
    with pytest.raises(LabelCollision):
        tz.connected_sum(bp3, face, other, face, g,
                         relabeling={"3": "z", "b": "z"})
    for label in ("", 3):
        with pytest.raises(LabelCollision):
            tz.connected_sum(bp3, face, other, face, g,
                             relabeling={"3": label, "b": "w"})


def test_fresh_label_prefix():
    assert fresh_label_prefix(("1", "a")) == "s0."
    assert fresh_label_prefix(("s0.3", "a")) == "s1."
    assert fresh_label_prefix(("s0.3", "s2.b")) == "s1."
    assert fresh_label_prefix(("s.3",)) == "s0."
    # \d matches every Unicode decimal digit, and int() reads them.
    assert fresh_label_prefix(("s0.a", "s1.b", "s2.c", "s\u0663.x")) == "s4."


def test_iterated_sums_do_not_collide():
    # Two m1 sums both carry s0.-labels; the auto prefix must dodge them.
    first = tz.example_sum("m1", 3, 3)
    second = tz.example_sum("m1", 3, 3)
    face = ("2", "3", "a")
    g = tz.enumerate_special_maps(face, face)[0]
    out = tz.connected_sum(first, face, second, face, g).triangulation
    assert len(out.vertices) == 2 * 13 - 3


def test_m2_sum_is_z_knotted_and_m6_is_not():
    assert tz.is_z_knotted(tz.example_sum("m2", 1, 1))
    assert not tz.is_z_knotted(tz.example_sum("m6", 1, 1))


def test_gluing_condition_golden_cases():
    face = ("1", "2", "a")
    bp3, bp3_other = tz.bipyramid(3), tz.bipyramid(3)
    m2_map = tz.SpecialMap(face, face, (("a", "a"), ("1", "1"), ("2", "2")))
    assert tz.gluing_condition(bp3, face, bp3_other, face, m2_map)
    m6_map = tz.SpecialMap(face, face, (("a", "1"), ("1", "2"), ("2", "a")))
    assert not tz.gluing_condition(bp3, face, bp3_other, face, m6_map)


def test_identity_monodromy_glues_against_m5_under_every_map():
    m1_sum = tz.example_sum("m1", 3, 3)
    identity_face = ("2", "3", "a")
    bp8 = tz.bipyramid(8)
    m5_face = ("1", "2", "a")
    for g in tz.enumerate_special_maps(identity_face, m5_face):
        assert tz.gluing_condition(m1_sum, identity_face, bp8, m5_face, g)


def test_gluing_condition_matches_knottedness_of_sum(knotted_corpus):
    # Both summands z-knotted => both faces essential; Lemma equivalence holds.
    pairs = 0
    for i, first in enumerate(knotted_corpus[:6]):
        for second in knotted_corpus[i + 1:6]:
            face1, face2 = first.faces[0], second.faces[-1]
            for g in tz.enumerate_special_maps(face1, face2):
                condition = tz.gluing_condition(first, face1, second, face2, g)
                summed = tz.connected_sum(first, face1, second, face2, g)
                assert condition == tz.is_z_knotted(summed.triangulation)
                pairs += 1
    assert pairs >= 30


def test_th4_decide_table():
    assert tz.th4_decide("M2", "M4") == tz.ALL
    assert tz.th4_decide("M2", "M1") == tz.ALL
    assert tz.th4_decide("M1", "M2") == tz.ALL
    assert tz.th4_decide("M1", "M3") == tz.ALL
    assert tz.th4_decide("M3", "M1") == tz.ALL
    assert tz.th4_decide("M1", "M1") == tz.NONE
    assert tz.th4_decide("M1", "M4") == tz.NONE
    assert tz.th4_decide("M4", "M1") == tz.NONE
    assert tz.th4_decide("M3", "M4") == tz.EXISTS
    assert tz.th4_decide("M3", "M3") == tz.EXISTS
    assert tz.th4_decide("M4", "M4") == tz.EXISTS
    for bad in ("M5", "M6", "M7", "bogus"):
        with pytest.raises(InvalidMonodromyType):
            tz.th4_decide(bad, "M1")
        with pytest.raises(InvalidMonodromyType):
            tz.th4_decide("M2", bad)


def test_lemma_5_2_patch_faces_become_locally_knotted():
    # Second summand z-knotted + gluing condition => its surviving faces are
    # locally z-knotted in the sum.
    bp6 = tz.bipyramid(6)
    face = ("1", "2", "a")
    patch = tz.bipyramid(3)
    for g in tz.enumerate_special_maps(face, face):
        if not tz.gluing_condition(bp6, face, patch, face, g):
            continue
        result = tz.connected_sum(bp6, face, patch, face, g)
        relabel = dict(result.relabeling)
        for patch_face in patch.faces:
            if patch_face == face:
                continue
            image = tz.make_face(*(relabel[v] if v in relabel
                                   else g.vertex_inverse(v)
                                   for v in patch_face))
            assert tz.is_locally_z_knotted(result.triangulation, image)
        break
    else:
        pytest.fail("no special map satisfied the gluing condition")


def test_lemma_7_locally_knotted_faces_survive_sums():
    bp8 = tz.bipyramid(8)
    m1_sum = tz.example_sum("m1", 3, 3)  # all faces locally z-knotted
    face = ("2", "3", "a")
    target = ("1", "2", "a")
    g = tz.enumerate_special_maps(face, target)[0]
    result = tz.connected_sum(m1_sum, face, bp8, target, g)
    for survivor in m1_sum.faces:
        if survivor == face:
            continue
        assert tz.is_locally_z_knotted(result.triangulation, survivor)


def test_refine_identity_face():
    m1_sum = tz.example_sum("m1", 3, 3)
    face = ("2", "3", "a")
    result = tz.refine_identity_face(m1_sum, face)
    out = result.triangulation
    assert tz.is_z_knotted(out)
    assert len(out.faces) == len(m1_sum.faces) + 2
    assert len(out.vertices) == len(m1_sum.vertices) + 1
    apex = dict(result.relabeling)["4"]
    new_faces = [f for f in out.faces if apex in f]
    assert len(new_faces) == 3
    types = tz.face_types(out)
    assert all(types[f].tag == "M4" for f in new_faces)


def test_refine_identity_face_preconditions():
    bp3 = tz.bipyramid(3)
    with pytest.raises(MonodromyNotIdentity):
        tz.refine_identity_face(bp3, ("1", "2", "a"))  # M3, not identity
    bp6 = tz.bipyramid(6)
    with pytest.raises(NotZKnotted):
        tz.refine_identity_face(bp6, ("1", "2", "a"))
    m1_sum = tz.example_sum("m1", 3, 3)
    with pytest.raises(FaceNotFound):
        tz.refine_identity_face(m1_sum, ("x", "y", "z"))


def test_glued_product_cycle_type_is_order_independent():
    # cycle type of g M g^-1 M' is invariant under swapping the roles
    first, second = tz.bipyramid(5), tz.bipyramid(7)
    face = ("1", "2", "a")
    for g in tz.enumerate_special_maps(face, face):
        forward = tz.gluing_condition(first, face, second, face, g)
        reversed_map = tz.SpecialMap(face, face, tuple((t, s) for s, t in g.pairs))
        backward = tz.gluing_condition(second, face, first, face, reversed_map)
        assert forward == backward


def test_th4_decide_matches_exhaustive_gluing():
    representatives = {
        "M1": (tz.example_sum("m1", 3, 3), ("2", "3", "a")),
        "M2": (tz.example_sum("m2", 1, 1), ("1", "2", "b")),
        "M3": (tz.bipyramid(3), ("1", "2", "a")),
        "M4": (tz.bipyramid(5), ("1", "2", "a")),
    }
    for tag, (tri, face) in representatives.items():
        assert face_type(tri, face).tag == tag and tz.is_z_knotted(tri)
    for tag_a, tag_b in itertools.combinations_with_replacement(
            ("M1", "M2", "M3", "M4"), 2):
        tri_a, face_a = representatives[tag_a]
        tri_b, face_b = representatives[tag_b]
        if tri_a is tri_b:
            tri_b = tz.Triangulation(tri_b)
        outcomes = [
            tz.is_z_knotted(
                tz.connected_sum(tri_a, face_a, tri_b, face_b, g).triangulation)
            for g in tz.enumerate_special_maps(face_a, face_b)
        ]
        decision = tz.th4_decide(tag_a, tag_b)
        if decision == tz.ALL:
            assert all(outcomes), (tag_a, tag_b, outcomes)
        elif decision == tz.NONE:
            assert not any(outcomes), (tag_a, tag_b, outcomes)
        else:
            assert any(outcomes), (tag_a, tag_b, outcomes)


def _assert_matches_full_validation(tri):
    reference = tz.Triangulation(tri.faces)
    assert tri.faces == reference.faces
    assert tri.edges == reference.edges
    assert tri.vertices == reference.vertices
    assert tri.across == reference.across  # corner for corner
    assert tz.validate(tri).ok


def test_sums_match_full_validation_on_corpus(full_corpus):
    # Most corpus surfaces are built by sums; sum each with its successor too.
    for i, (first, second) in enumerate(zip(full_corpus, full_corpus[1:])):
        _assert_matches_full_validation(first)
        face = first.faces[i % len(first.faces)]
        other_face = second.faces[-1 - i % len(second.faces)]
        gluing = tz.enumerate_special_maps(face, other_face)[i % 6]
        result = tz.connected_sum(first, face, second, other_face, gluing)
        _assert_matches_full_validation(result.triangulation)


_PIECES = st.one_of(st.integers(3, 9).map(tz.bipyramid),
                    st.builds(tz.torus_grid, st.just(3), st.just(3)),
                    st.builds(tz.projective_plane_fig5))


@settings(max_examples=30, deadline=None)
@given(st.lists(_PIECES, min_size=2, max_size=5), st.data())
def test_chained_sums_match_full_validation(pieces, data):
    tri = pieces[0]
    for other in pieces[1:]:
        face = data.draw(st.sampled_from(tri.faces))
        other_face = data.draw(st.sampled_from(other.faces))
        gluing = data.draw(st.sampled_from(tz.enumerate_special_maps(face, other_face)))
        tri = tz.connected_sum(tri, face, other, other_face, gluing).triangulation
        _assert_matches_full_validation(tri)


def _assert_surface_matches_full_validation(surface):
    # The live faces take distinct slots of the slot corner table, which
    # freezing renumbers.
    assert len(set(surface.slot.values())) == len(surface.slot)
    assert all(0 <= s < len(surface.across) // 3 for s in surface.slot.values())
    reference = tz.Triangulation(list(surface.slot))
    frozen = surface.freeze()
    assert frozen.faces == reference.faces
    assert frozen.edges == reference.edges
    assert frozen.vertices == tuple(sorted(surface.vertices)) == reference.vertices
    assert frozen.across == reference.across  # corner for corner


def test_shred_intermediates_match_full_validation(monkeypatch):
    # Every glue of the generator's, the shredder's and the replay's chain.
    # The patches are built first: the m1 patch is itself a sum.
    for tag in ("M5", "M7"):
        tz.patch_for(tag)
    glue = core._Surface.glue
    surfaces = []

    def checked_glue(surface, *args, **kwargs):
        result = glue(surface, *args, **kwargs)
        _assert_surface_matches_full_validation(surface)
        surfaces.append(surface)
        return result

    freeze = core._Surface.freeze
    frozen = []

    def recorded_freeze(surface):
        tri = freeze(surface)
        frozen.append((surface, tri))
        return tri

    monkeypatch.setattr(core._Surface, "glue", checked_glue)
    monkeypatch.setattr(core._Surface, "freeze", recorded_freeze)
    tri = tz.random_sphere(3, 20)
    assert len(surfaces) == 20
    _assert_matches_full_validation(tri)
    out, certificate = tz.shred(tri)
    steps = len(certificate.steps)
    assert len(surfaces) == 20 + steps > 20
    assert frozen[-1][0] is surfaces[-1] and frozen[-1][1] is out  # frozen from the chain
    _assert_matches_full_validation(out)
    assert tz.verify_certificate(tri, certificate, out).ok
    assert len(surfaces) == 20 + 2 * steps


def test_sums_run_with_the_constructor_name_wrapped(monkeypatch):
    # Tracing replaces ``surgery.Triangulation`` by a plain function, so sums
    # must not reach their constructor through that name.
    built = []

    def wrapped(faces):
        built.append(faces)
        return tz.Triangulation(faces)

    monkeypatch.setattr(surgery, "Triangulation", wrapped)
    first, second = tz.bipyramid(3), tz.bipyramid(5)
    face = ("1", "2", "a")
    gluing = tz.enumerate_special_maps(face, face)[0]
    tri = tz.connected_sum(first, face, second, face, gluing).triangulation
    _assert_matches_full_validation(tri)
    bp8 = tz.bipyramid(8)
    out, certificate = tz.shred(bp8)
    assert tz.verify_certificate(bp8, certificate, out).ok
    refined = tz.refine_identity_face(tz.example_sum("m1", 3, 3), ("2", "3", "a"))
    _assert_matches_full_validation(refined.triangulation)
    assert len(built) == 1  # only the tetrahedron of the refinement


def test_label_prefixes_are_carried_along_a_chain_of_sums():
    # The surface's taken "s<k>." numbers are its start's plus every glue's
    # fresh labels', so automatic sums keep picking what fresh_label_prefix
    # would.
    surface = core._Surface(tz.bipyramid(5))
    patch = tz.bipyramid(3)
    face = ("1", "2", "a")
    explicit = {"3": "s0.q", "b": "s2.q"}
    for i in range(6):
        host_face = min(f for f in surface.slot if f[0] in ("1", "2", "3"))
        gluing = tz.enumerate_special_maps(host_face, face)[0]
        expected = fresh_label_prefix(surface.vertices)
        _added, relabeling = surface.glue(host_face, patch, face, gluing,
                                          explicit if i == 2 else None)
        if i != 2:
            assert all(label.startswith(expected) for _v, label in relabeling)
        assert surface.taken == _prefix_numbers(surface.vertices)
        assert f"s{surface.free}." == fresh_label_prefix(surface.vertices)
    assert tz.validate(surface.freeze()).ok


def test_automatic_glues_skip_prefixes_taken_by_explicit_ones():
    # The surface keeps its least free k: explicit relabelings take s0. and
    # s2., and the automatic glues after them fill s1. and then go on at s3.
    surface = core._Surface(tz.bipyramid(5))
    patch, face = tz.bipyramid(3), ("1", "2", "a")
    prefixes = []
    for relabeling in ({"3": "s0.p", "b": "s0.q"}, {"3": "s2.p", "b": "s2.q"}, None, None):
        host_face = min(surface.slot)
        gluing = tz.enumerate_special_maps(host_face, face)[0]
        _added, fresh = surface.glue(host_face, patch, face, gluing, relabeling)
        prefixes.append({label[:3] for _v, label in fresh})
    assert prefixes == [{"s0."}, {"s2."}, {"s1."}, {"s3."}]
    assert surface.free == 4
    assert tz.validate(surface.freeze()).ok
