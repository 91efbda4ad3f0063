"""Acceptance suite: the golden reproductions and property gates.

Each test covers one numbered criterion and prints a one-line verdict; run
with ``pytest tests/test_acceptance.py -s`` to see every line.  All checks
are exact (combinatorial equality), no numeric tolerances are involved.
"""

import itertools
import time

import trizig as tz
from conftest import _bad_faces, face_type

KNOTTED_TAGS = {"M1", "M2", "M3", "M4"}


def _passed(number, text):
    print(f"criterion {number:2d}: PASS - {text}")


def test_criterion_01_golden_monodromy_table():
    cases = [
        (tz.bipyramid(3), ("1", "2", "a"), "M3"),
        (tz.bipyramid(5), ("1", "2", "a"), "M4"),
        (tz.bipyramid(8), ("1", "2", "a"), "M5"),
        (tz.bipyramid(6), ("1", "2", "a"), "M7"),
        (tz.example_sum("m1", 3, 3), ("2", "3", "a"), "M1"),
        (tz.example_sum("m2", 1, 1), ("1", "2", "b"), "M2"),
        (tz.example_sum("m6", 1, 1), ("1", "2", "b"), "M6"),
    ]
    realized = set()
    for tri, face, expected in cases:
        got = face_type(tri, face).tag
        assert got == expected, (face, got, expected)
        realized.add(got)
    assert realized == {"M1", "M2", "M3", "M4", "M5", "M6", "M7"}
    _passed(1, "all seven monodromy types realized at their golden faces")


def test_criterion_02_bp3_golden_zigzag():
    bp3 = tz.bipyramid(3)
    assert tz.is_z_knotted(bp3)
    atlas = tz.all_zigzags(bp3)
    assert atlas.count == 2
    zigzag = atlas.zigzags[0]
    assert zigzag.length == 18 == 2 * len(bp3.edges)
    golden = ("a", "1", "2", "b", "3", "1", "a", "2", "3",
              "b", "1", "2", "a", "3", "1", "b", "2", "3")
    vertices = list(zigzag.vertices)
    rotations = [tuple(vertices[i:] + vertices[:i]) for i in range(18)]
    reversed_vertices = vertices[::-1]
    rotations += [tuple(reversed_vertices[i:] + reversed_vertices[:i])
                  for i in range(18)]
    assert golden in rotations
    _passed(2, "BP_3 zigzag reproduces the worked 18-vertex cycle")


def test_criterion_03_atlas_counts():
    atlas = tz.all_zigzags(tz.platonic("tetrahedron"))
    assert atlas.count == 6
    assert all(z.length == 4 and z.is_simple for z in atlas)
    assert len(tz.zigzags_of_face(tz.bipyramid(8), ("1", "2", "a"))) == 6
    _passed(3, "tetrahedron has 6 simple 4-zigzags; BP_8 face meets 6 zigzags")


def test_criterion_04_classification_totality(full_corpus, random_corpus):
    assert len(random_corpus) == 200
    mismatches = 0
    for tri in full_corpus:
        for face, mtype in tz.face_types(tri).items():
            assert mtype.tag in {"M1", "M2", "M3", "M4", "M5", "M6", "M7"}
            if (mtype.tag in KNOTTED_TAGS) != tz.is_locally_z_knotted(tri, face):
                mismatches += 1
    assert mismatches == 0
    _passed(4, f"classification total over {len(full_corpus)} triangulations; "
               f"M1-M4 <=> locally z-knotted with 0 mismatches")


def test_criterion_05_knotted_iff_all_faces_knotted_type(full_corpus):
    mismatches = 0
    for tri in full_corpus:
        all_good = all(mtype.tag in KNOTTED_TAGS
                       for mtype in tz.face_types(tri).values())
        if all_good != tz.is_z_knotted(tri):
            mismatches += 1
    assert mismatches == 0
    _passed(5, "z-knotted <=> every face of type M1-M4, 0 mismatches")


def test_criterion_06_monodromy_laws(full_corpus):
    negation = tz.core.OMEGA_NEGATION
    for tri in full_corpus:
        for face in tri.faces:
            m = tz.z_monodromy(tri, face)
            assert sorted(m.image) == list(range(6))
            for k, image in enumerate(m.image):
                assert image != negation[k]
                assert m.image[negation[image]] == negation[k]
            assert max(len(c) for c in m.cycles()) <= 3
    _passed(6, "bijectivity, no negation images, negation law, cycles <= 3")


def test_criterion_07_gluing_lemma(knotted_corpus):
    hosts = knotted_corpus[:5]
    tuples = 0
    maps_used = set()
    for i, first in enumerate(hosts):
        for second in hosts[i + 1:]:
            face1 = first.faces[0]
            face2 = second.faces[-1]
            for index, g in enumerate(tz.enumerate_special_maps(face1, face2)):
                condition = tz.gluing_condition(first, face1, second, face2, g)
                result = tz.connected_sum(first, face1, second, face2, g)
                assert condition == tz.is_z_knotted(result.triangulation)
                tuples += 1
                maps_used.add(index)
    assert tuples >= 50
    assert maps_used == set(range(6))
    _passed(7, f"gluing condition <=> z-knotted sum over {tuples} tuples, "
               f"all 6 maps covered, 0 mismatches")


def test_criterion_08_sum_decision_table():
    representatives = {
        "M1": (tz.example_sum("m1", 3, 3), ("2", "3", "a")),
        "M2": (tz.example_sum("m2", 1, 1), ("1", "2", "b")),
        "M3": (tz.bipyramid(3), ("1", "2", "a")),
        "M4": (tz.bipyramid(5), ("1", "2", "a")),
    }
    for tag, (tri, face) in representatives.items():
        assert face_type(tri, face).tag == tag and tz.is_z_knotted(tri)
    for tag_a, tag_b in itertools.combinations_with_replacement(
            sorted(KNOTTED_TAGS), 2):
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
        assert decision == tz.th4_decide(tag_b, tag_a)
        if decision == tz.ALL:
            assert all(outcomes), (tag_a, tag_b)
        elif decision == tz.NONE:
            assert not any(outcomes), (tag_a, tag_b)
        else:
            assert any(outcomes), (tag_a, tag_b)
    _passed(8, "ALL/EXISTS/NONE semantics exact on all 10 type combinations")


def test_criterion_09_shredding_at_scale():
    started = time.monotonic()

    # Step counts are the measured values for this algorithm: one gluing can
    # repair several faces at once by merging zigzag pairs, so counts are
    # well below the initial bad-face counts.
    named = [
        (tz.bipyramid(8), 2, 2, True),
        (tz.bipyramid(6), 1, 2, True),
        (tz.platonic("icosahedron"), 4, 2, True),
        (tz.torus_grid(3, 3), 5, 0, True),
        (tz.projective_plane_fig5(), 4, 1, False),
    ]
    for tri, expected_steps, chi, orientable in named:
        initial_bad = len(_bad_faces(tri))
        out, certificate = tz.shred(tri)
        assert len(certificate.steps) == expected_steps
        assert len(certificate.steps) <= initial_bad
        assert tz.is_z_knotted(out)
        assert tz.euler_characteristic(out) == chi
        assert tz.is_orientable(out) == orientable

    # strict decrease of the bad-face count, step by step
    current = tz.bipyramid(8)
    previous = len(_bad_faces(current))
    while _bad_faces(current):
        face, _ = _bad_faces(current)[0]
        current = tz.shred_step(current, face)
        now = len(_bad_faces(current))
        assert now < previous
        previous = now

    for seed in range(100):
        sphere = tz.random_sphere(seed, seed % 4)
        out, certificate = tz.shred(sphere)
        assert tz.is_z_knotted(out)
        assert tz.euler_characteristic(out) == 2
        assert tz.is_orientable(out)
        assert len(certificate.steps) <= len(_bad_faces(sphere))

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(9, f"named inputs + 100 random spheres shredded z-knotted, "
               f"surface preserved, in {elapsed:.2f}s")


def test_criterion_10_identity_face_refinement():
    m1_sum = tz.example_sum("m1", 3, 3)
    result = tz.refine_identity_face(m1_sum, ("2", "3", "a"))
    out = result.triangulation
    assert tz.is_z_knotted(out)
    apex = dict(result.relabeling)["4"]
    new_faces = [face for face in out.faces if apex in face]
    assert len(new_faces) == 3
    types = tz.face_types(out)
    assert all(types[face].tag == "M4" for face in new_faces)
    _passed(10, "refined identity face yields z-knotted result, 3 new M4 faces")


def test_criterion_11_gauss_codes(knotted_corpus):
    assert knotted_corpus
    for tri in knotted_corpus:
        word = tz.gauss_code(tri)
        assert len(word) == 2 * len(tri.edges)
        counts = {}
        for symbol in word:
            counts[symbol] = counts.get(symbol, 0) + 1
        assert set(counts.values()) == {2}
        assert len(counts) == len(tri.edges)
    _passed(11, f"double-occurrence words of length 2E for "
                f"{len(knotted_corpus)} z-knotted members")


def test_criterion_12_determinism():
    ico = tz.platonic("icosahedron")
    out_a, cert_a = tz.shred(ico)
    out_b, cert_b = tz.shred(tz.platonic("icosahedron"))
    assert tz.serialize(out_a) == tz.serialize(out_b)
    assert cert_a.to_json() == cert_b.to_json()
    assert tz.verify_certificate(ico, cert_a, out_b).ok

    def atlas_bytes(tri):
        return "\n".join(
            ",".join(f"{d.tail}>{d.head}" for d in z.darts)
            for z in tz.all_zigzags(tri))

    sphere = tz.random_sphere(11, 3)
    assert atlas_bytes(sphere) == atlas_bytes(tz.random_sphere(11, 3))
    assert tz.serialize(sphere) == tz.serialize(tz.random_sphere(11, 3))
    _passed(12, "repeated shreds and atlases byte-identical; replay verified")
