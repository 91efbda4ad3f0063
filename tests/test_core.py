"""Face-set data model: construction, validation, rotation, invariants."""

import pytest
from hypothesis import given, strategies as st

import trizig as tz
from trizig.core import (DISCONNECTED, DUPLICATE_FACE, EDGE_DEGREE,
                         NON_MANIFOLD_VERTEX, NON_TRIANGLE, Dart, _Surface)
from trizig.errors import EdgeNotInFace, ValidationFailure

TETRA = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
# The icosahedron with its antipodal vertices 1 and 12 identified: every
# edge still lies in two faces, but the link of vertex 1 is two 5-cycles.
PINCHED_ICOSAHEDRON = [tuple("1" if v == "12" else v for v in face)
                       for face in tz.platonic("icosahedron").faces]


def test_build_tetrahedron_counts():
    tri = tz.Triangulation(TETRA)
    assert len(tri.vertices) == 4
    assert len(tri.edges) == 6
    assert len(tri.faces) == 4
    assert tri.vertices == ("1", "2", "3", "4")


def test_build_bp3_counts():
    tri = tz.Triangulation(
        [("1", "2", "a"), ("2", "3", "a"), ("3", "1", "a"),
         ("1", "2", "b"), ("2", "3", "b"), ("3", "1", "b")])
    assert len(tri.vertices) == 5
    assert len(tri.edges) == 9
    assert len(tri.faces) == 6
    assert tri == tz.bipyramid(3)


def test_integer_labels_are_canonicalized():
    tri = tz.Triangulation(TETRA)
    assert tri == tz.Triangulation([("1", "2", "3"), ("1", "2", "4"),
                                    ("1", "3", "4"), ("2", "3", "4")])


def test_build_rejects_edge_degree_violation():
    with pytest.raises(ValidationFailure) as info:
        tz.Triangulation([(1, 2, 3), (1, 2, 4)])
    rules = {v.rule for v in info.value.report.violations}
    assert EDGE_DEGREE in rules
    # the bad edges are named
    subjects = [v.subject for v in info.value.report.violations if v.rule == EDGE_DEGREE]
    assert (("1", "3"),) in subjects
    # In sorted-edge order, not in the order the faces first meet the edges.
    assert subjects == sorted(subjects) == [(("1", "3"),), (("1", "4"),),
                                            (("2", "3"),), (("2", "4"),)]
    assert [v.subject for v in tz.validate([(1, 2, 3), (1, 2, 4)]).violations] == subjects


def test_build_rejects_duplicate_face():
    with pytest.raises(ValidationFailure) as info:
        tz.Triangulation([(1, 2, 3), (3, 2, 1)])
    assert DUPLICATE_FACE in {v.rule for v in info.value.report.violations}


def test_build_rejects_non_triangles():
    for bad in ([(1, 2)], [(1, 2, 3, 4)], [(1, 1, 2)], [("", "x", "y")], [],
                None, [1, 2], [(1, 2, 3), 7]):
        assert NON_TRIANGLE in {v.rule for v in tz.validate(bad).violations}
        with pytest.raises(ValidationFailure) as info:
            tz.Triangulation(bad)
        assert NON_TRIANGLE in {v.rule for v in info.value.report.violations}


def test_build_rejects_disconnected():
    two_tetra = TETRA + [(5, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)]
    with pytest.raises(ValidationFailure) as info:
        tz.Triangulation(two_tetra)
    vertex_graph, face_graph = info.value.report.violations
    assert vertex_graph.rule == face_graph.rule == DISCONNECTED
    assert vertex_graph.subject == ("5", "6", "7", "8")
    assert "vertex graph" in vertex_graph.message
    assert face_graph.subject == (("5", "6", "7"), ("5", "6", "8"),
                                  ("5", "7", "8"), ("6", "7", "8"))
    assert "face adjacency graph" in face_graph.message
    assert tz.validate(two_tetra).violations == info.value.report.violations


def test_build_rejects_pinched_icosahedron():
    report = tz.validate(PINCHED_ICOSAHEDRON)
    assert [(v.rule, v.subject) for v in report.violations] == [
        (NON_MANIFOLD_VERTEX, ("1",))]
    with pytest.raises(ValidationFailure) as info:
        tz.Triangulation(PINCHED_ICOSAHEDRON)
    assert info.value.report == report


def test_build_rejects_tetrahedra_sharing_a_vertex():
    bouquet = TETRA + [(1, 6, 7), (1, 6, 8), (1, 7, 8), (6, 7, 8)]
    report = tz.validate(bouquet)
    # Sharing vertex 1 keeps the vertex graph connected, not the face graph.
    assert [(v.rule, v.subject) for v in report.violations] == [
        (NON_MANIFOLD_VERTEX, ("1",)),
        (DISCONNECTED, (("1", "6", "7"), ("1", "6", "8"),
                        ("1", "7", "8"), ("6", "7", "8")))]
    with pytest.raises(ValidationFailure):
        tz.Triangulation(bouquet)


def test_validate_reports_without_raising():
    report = tz.validate([(1, 2, 3), (1, 2, 3)])
    assert not report.ok
    assert DUPLICATE_FACE in {v.rule for v in report.violations}

    ok_report = tz.validate(TETRA)
    assert ok_report.ok and str(ok_report) == "ok"

    # idempotent on constructed triangulations
    tri = tz.Triangulation(TETRA)
    assert tz.validate(tri).ok
    assert tz.validate(tz.platonic("octahedron")).ok

    # An int label too long to write as text is a bad entry, not a crash.
    huge = [(10 ** 5000, 1, 2)] + TETRA
    report = tz.validate(huge)
    assert [(v.rule, v.subject[0]) for v in report.violations] == [(NON_TRIANGLE, 0)]
    assert str(report).startswith("NonTriangleInput: face #0: ")
    assert repr(report).startswith("ValidationReport(")
    for entry in [(None, 10 ** 5000, 2), (10 ** 5000, 1)]:
        assert repr(tz.validate([entry])).startswith("ValidationReport(")
    with pytest.raises(ValidationFailure) as info:
        tz.Triangulation(huge)
    assert info.value.report.violations == report.violations


def test_face_rotation_golden():
    face = ("a", "b", "c")
    assert tz.face_rotation(face, Dart("a", "b")) == Dart("b", "c")
    assert tz.face_rotation(face, Dart("b", "a")) == Dart("a", "c")
    with pytest.raises(EdgeNotInFace):
        tz.face_rotation(face, Dart("a", "x"))


def test_face_rotation_is_pair_of_3cycles():
    face = ("p", "q", "r")
    darts = tz.omega(face)
    assert len(darts) == 6
    for dart in darts:
        once = tz.face_rotation(face, dart)
        thrice = tz.face_rotation(face, tz.face_rotation(face, once))
        assert thrice == dart
        assert once != dart
        # rotation(e) = e' implies rotation(-e') = -e
        assert tz.face_rotation(face, -once) == -dart
        # inverse really inverts
        assert tz.face_rotation_inverse(face, once) == dart
    assert set(tz.face_rotation(face, d) for d in darts) == set(darts)


def test_omega_is_negation_closed():
    darts = tz.omega(("1", "2", "a"))
    assert len(darts) == 6
    assert len(set(darts)) == 6
    assert {-d for d in darts} == set(darts)
    assert darts == tz.omega(("a", "2", "1"))  # any vertex order accepted


def test_dart_negation():
    dart = Dart("x", "y")
    assert (-dart).tail == "y" and (-dart).head == "x"
    assert -(-dart) == dart
    assert dart.edge == ("x", "y") == (-dart).edge
    with pytest.raises(ValueError, match="degenerate edge"):
        Dart("1", "1").edge


def test_euler_characteristic():
    assert tz.euler_characteristic(tz.Triangulation(TETRA)) == 2
    assert tz.euler_characteristic(tz.torus_grid(3, 3)) == 0
    assert tz.euler_characteristic(tz.projective_plane_fig5()) == 1


def test_orientability():
    assert tz.is_orientable(tz.platonic("octahedron"))
    assert tz.is_orientable(tz.torus_grid(4, 4))
    assert not tz.is_orientable(tz.projective_plane_fig5())


def test_three_f_equals_two_e_everywhere(full_corpus):
    # The edges are read off edge_faces on demand, on every kind of surface:
    # generated, parsed, summed, random and shredded (frozen unvalidated).
    summed = tz.connected_sum(tz.bipyramid(5), ("1", "2", "a"),
                              tz.bipyramid(4), ("1", "2", "a"),
                              tz.enumerate_special_maps(("1", "2", "a"),
                                                        ("1", "2", "a"))[0])
    extra = [tz.parse(tz.serialize(tz.torus_grid(3, 4))), summed.triangulation,
             tz.random_sphere(7, 12), tz.shred(tz.torus_grid(3, 3))[0],
             tz.shred(tz.projective_plane_fig5())[0]]
    for tri in list(full_corpus) + extra:
        assert 3 * len(tri.faces) == 2 * len(tri.edges)
        assert tri.edges == tuple(sorted(tri.edge_faces))


def test_chi_parity_matches_orientability_on_known_surfaces():
    for tri, chi, orientable in [
        (tz.bipyramid(5), 2, True),
        (tz.platonic("icosahedron"), 2, True),
        (tz.torus_grid(3, 4), 0, True),
        (tz.projective_plane_fig5(), 1, False),
    ]:
        assert tz.euler_characteristic(tri) == chi
        assert tz.is_orientable(tri) == orientable
        assert (chi % 2 == 0) == orientable


def test_generator_outputs_validate(full_corpus):
    for tri in full_corpus:
        assert tz.validate(tri).ok


def test_triangulation_value_semantics():
    one = tz.bipyramid(4)
    two = tz.bipyramid(4)
    assert one == two and hash(one) == hash(two)
    assert one != tz.bipyramid(5)
    copy = tz.Triangulation(one)
    assert copy == one and copy is not one
    assert repr(tz.bipyramid(3)) == "Triangulation(5 vertices, 9 edges, 6 faces)"


def test_has_face_finds_every_face(full_corpus):
    # Most corpus surfaces are sums, frozen from a ``_Surface``.
    for tri in full_corpus:
        surface = _Surface(tri)
        assert all(tri.has_face(face) and surface.has_face(face) for face in tri.faces)


def test_has_face_finds_only_canonical_faces():
    bp3 = tz.bipyramid(3)
    assert bp3.has_face(("1", "2", "a"))
    # Int and mixed labels do not compare with text: the bisection must not
    # raise on them.  Lists and unhashable labels are no faces either.
    for face in (("2", "1", "a"), ("a", "1", "2"), ("1", "2", "3"), ("1", "2"),
                 ("1", "2", "a", "b"), "12a", None, 5, (1, 2, 3), (1, 2, "a"),
                 ("1", 2, "a"), ("1", "2", 3), ["1", "2", "a"], ("1", "2", ["a"])):
        assert not bp3.has_face(face), face
        assert not _Surface(bp3).has_face(face), face
    # A face that a glue removed is a tombstone on the surface and no face of
    # its freeze.
    surface = _Surface(bp3)
    gone, patch_face = ("1", "2", "b"), ("1", "2", "a")
    surface.glue(gone, tz.bipyramid(3), patch_face,
                 tz.enumerate_special_maps(gone, patch_face)[0])
    assert bp3.faces.index(gone) not in surface.slot.values()
    assert not surface.has_face(gone)
    assert not surface.freeze().has_face(gone)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
                max_size=12))
def test_validate_never_raises_on_junk(face_list):
    report = tz.validate(face_list)
    if report.ok:
        tz.Triangulation(face_list)
    else:
        with pytest.raises(ValidationFailure):
            tz.Triangulation(face_list)


def test_public_surface_is_pinned():
    # Imported submodules are attributes too; importing the last one here
    # keeps the list independent of test order.
    import trizig.cli  # noqa: F401
    assert sorted(n for n in dir(tz) if not n.startswith("_")) == [
        "ALL", "Dart", "DartPermutation", "EXISTS", "Edge", "Face", "MonodromyType",
        "NONE", "Patch", "Position", "ShredCertificate", "ShredStep", "SpecialMap",
        "SumResult", "Triangulation", "ValidationReport", "VerificationResult",
        "Vertex", "Violation", "Zigzag", "ZigzagAtlas", "all_zigzags", "bipyramid",
        "classify", "cli", "connected_sum", "core", "document",
        "enumerate_special_maps", "errors", "euler_characteristic", "example_sum",
        "face_edges", "face_rotation", "face_rotation_inverse", "face_types",
        "find_gluing_map", "fresh_label_prefix", "gauss_code", "generators",
        "gluing_condition", "is_essential", "is_locally_z_knotted", "is_orientable",
        "is_two_disjoint_3cycles", "is_z_knotted", "make_face", "monodromy", "omega",
        "parse", "patch_for", "platonic", "projective_plane_fig5", "random_sphere",
        "refine_identity_face", "reverse_position", "serialize", "shred",
        "shred_step", "shredding", "step", "surgery", "th4_decide", "torus_grid",
        "trace", "validate", "verify_certificate", "z_monodromy", "zigzag",
        "zigzags_of_face"]
