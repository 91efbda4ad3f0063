"""Shredding loop, patches, and certificate replay."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import trizig as tz
from trizig.errors import InvalidMonodromyType, MalformedDocument
from trizig import monodromy, zigzag
from trizig.shredding import (BAD_TAGS, PATCH_BP3_M3, PATCH_SPHERE_M1,
                              ShredCertificate, ShredStep, _bad_faces,
                              _ZigzagState)


def test_patch_for():
    for tag in ("M5", "M6"):
        patch = tz.patch_for(tag)
        assert patch.patch_id == PATCH_SPHERE_M1
        assert patch.designated_face == ("2", "3", "a")
        assert patch.designated_type == "M1"
    m7_patch = tz.patch_for("M7")
    assert m7_patch.patch_id == PATCH_BP3_M3
    assert m7_patch.designated_face == ("1", "2", "a")
    assert m7_patch.designated_type == "M3"
    for tag in ("M1", "M2", "M3", "M4", "junk"):
        with pytest.raises(InvalidMonodromyType):
            tz.patch_for(tag)


def test_patch_invariants():
    for tag in ("M5", "M7"):
        patch = tz.patch_for(tag)
        tri = patch.triangulation
        assert tz.is_z_knotted(tri)
        assert tz.euler_characteristic(tri) == 2
        assert all(tz.is_essential(tri, face) for face in tri.faces)
        assert tz.face_types(tri)[patch.designated_face].tag == patch.designated_type


def test_find_gluing_map_m5_face():
    # Against an identity-monodromy patch face every special map works, so
    # the first one is returned.
    bp8 = tz.bipyramid(8)
    face = ("1", "2", "a")
    patch = tz.patch_for("M5")
    found = tz.find_gluing_map(bp8, face, patch)
    assert found == tz.enumerate_special_maps(face, patch.designated_face)[0]
    assert tz.gluing_condition(bp8, face, patch.triangulation,
                               patch.designated_face, found)


def test_find_gluing_map_m7_face():
    bp6 = tz.bipyramid(6)
    face = ("1", "2", "a")
    patch = tz.patch_for("M7")
    found = tz.find_gluing_map(bp6, face, patch)
    candidates = tz.enumerate_special_maps(face, patch.designated_face)
    working = [g for g in candidates
               if tz.gluing_condition(bp6, face, patch.triangulation,
                                      patch.designated_face, g)]
    assert found == working[0]


def test_m7_witness_aligned_map_satisfies_condition():
    # Carrying the M7 witness onto the patch's M3 witness always works.
    bp6 = tz.bipyramid(6)
    face = ("1", "2", "a")
    patch = tz.patch_for("M7")
    m7 = tz.classify(tz.z_monodromy(bp6, face))
    m3 = tz.classify(tz.z_monodromy(patch.triangulation, patch.designated_face))
    mapping = {}
    for dart, image in zip(m7.witness, m3.witness):
        mapping[dart.tail] = image.tail
        mapping[dart.head] = image.head
    aligned = tz.SpecialMap(face, patch.designated_face, tuple(mapping.items()))
    assert tz.gluing_condition(bp6, face, patch.triangulation,
                               patch.designated_face, aligned)


def test_patch_faces_locally_knotted_right_after_a_step():
    from trizig.shredding import _repair

    for tri, face in [(tz.bipyramid(8), ("1", "2", "a")),
                      (tz.bipyramid(6), ("1", "2", "a"))]:
        tag = tz.face_types(tri)[face].tag
        patch = tz.patch_for(tag)
        repaired, record = _repair(tri, face, tz.z_monodromy(tri, face).image)
        assert record.bad_type == tag
        gluing = tz.SpecialMap(face, patch.designated_face, record.vertex_map)
        relabel = dict(record.relabeling)
        for patch_face in patch.triangulation.faces:
            if patch_face == patch.designated_face:
                continue
            image = tz.make_face(*(relabel[v] if v in relabel
                                   else gluing.vertex_inverse(v)
                                   for v in patch_face))
            assert tz.is_locally_z_knotted(repaired, image)


def test_shred_step_bp8():
    bp8 = tz.bipyramid(8)
    assert len(_bad_faces(bp8)) == 16  # all faces M5 by symmetry
    repaired = tz.shred_step(bp8, ("1", "2", "a"))
    # One gluing repairs the patched face and merges zigzag pairs elsewhere:
    # measured bad-face count drops 16 -> 12.
    assert len(_bad_faces(repaired)) == 12
    assert tz.euler_characteristic(repaired) == 2


def test_shred_step_rejects_good_faces():
    bp3 = tz.bipyramid(3)
    with pytest.raises(InvalidMonodromyType):
        tz.shred_step(bp3, ("1", "2", "a"))


def test_shred_zero_steps_on_knotted_input():
    bp3 = tz.bipyramid(3)
    out, certificate = tz.shred(bp3)
    assert out == bp3
    assert certificate.steps == ()
    assert certificate.final_zigzag_length == 2 * len(bp3.edges)
    assert tz.verify_certificate(bp3, certificate, out).ok


# Step counts below are the measured values for this algorithm (least bad
# face, fixed patches, first valid map); each gluing repairs several faces.
SHRED_CASES = [
    ("bp8", 2, 2, True),
    ("bp6", 1, 2, True),
    ("icosahedron", 4, 2, True),
    ("torus_3_3", 5, 0, True),
    ("projective_plane", 4, 1, False),
]


@pytest.mark.parametrize("name,steps,chi,orientable", SHRED_CASES)
def test_shred_named_inputs(named_corpus, name, steps, chi, orientable):
    tri = named_corpus[name]
    initial_bad = len(_bad_faces(tri))
    out, certificate = tz.shred(tri)
    assert len(certificate.steps) == steps
    assert len(certificate.steps) <= initial_bad
    assert tz.is_z_knotted(out)
    assert tz.euler_characteristic(out) == chi == tz.euler_characteristic(tri)
    assert tz.is_orientable(out) == orientable == tz.is_orientable(tri)
    assert certificate.final_zigzag_length == 2 * len(out.edges)
    assert tz.verify_certificate(tri, certificate, out).ok


def test_shred_bad_count_strictly_decreases(named_corpus):
    current = named_corpus["icosahedron"]
    counts = [len(_bad_faces(current))]
    while _bad_faces(current):
        face, _tag = _bad_faces(current)[0]
        current = tz.shred_step(current, face)
        counts.append(len(_bad_faces(current)))
    assert counts == sorted(counts, reverse=True)
    assert len(set(counts)) == len(counts)
    assert counts[-1] == 0


def test_shred_only_bad_types_recorded(random_corpus):
    for tri in random_corpus[:25]:
        out, certificate = tz.shred(tri)
        assert tz.is_z_knotted(out)
        for step in certificate.steps:
            assert step.bad_type in BAD_TAGS
            assert step.patch_id in (PATCH_SPHERE_M1, PATCH_BP3_M3)


def test_shred_is_deterministic():
    first_out, first_cert = tz.shred(tz.bipyramid(8))
    second_out, second_cert = tz.shred(tz.bipyramid(8))
    assert tz.serialize(first_out) == tz.serialize(second_out)
    assert first_cert.to_json() == second_cert.to_json()


def test_certificate_json_round_trip():
    _, certificate = tz.shred(tz.torus_grid(3, 3))
    text = certificate.to_json()
    assert ShredCertificate.from_json(text) == certificate
    assert ShredCertificate.from_json(text).to_json() == text
    with pytest.raises(MalformedDocument):
        ShredCertificate.from_json("{}")
    with pytest.raises(MalformedDocument):
        ShredCertificate.from_json("not json")


def test_certificate_rejects_non_text_fields():
    _, certificate = tz.shred(tz.bipyramid(6))
    for field in ("face", "map", "relabeling", "patch", "bad_type"):
        doc = json.loads(certificate.to_json())
        entry = doc["steps"][0]
        if field == "face":
            entry["face"][0] = 5
        elif field in ("patch", "bad_type"):
            entry[field] = [entry[field]]
        else:
            entry[field][next(iter(entry[field]))] = 5
        with pytest.raises(MalformedDocument):
            ShredCertificate.from_json(json.dumps(doc))
    for length in (48.9, "48", True):
        doc = json.loads(certificate.to_json())
        doc["final_zigzag_length"] = length
        with pytest.raises(MalformedDocument):
            ShredCertificate.from_json(json.dumps(doc))


def test_verify_certificate_round_trip():
    bp8 = tz.bipyramid(8)
    out, certificate = tz.shred(bp8)
    assert tz.verify_certificate(bp8, certificate, out).ok


def test_verify_certificate_rejects_tampering():
    bp8 = tz.bipyramid(8)
    out, certificate = tz.shred(bp8)

    # swap the special map of the first step for a different one
    step = certificate.steps[0]
    patch = tz.patch_for(step.bad_type)
    alternatives = tz.enumerate_special_maps(step.face, patch.designated_face)
    other_map = next(g for g in alternatives if g.pairs != step.vertex_map)
    tampered_step = ShredStep(step.face, step.bad_type, step.patch_id,
                              other_map.pairs, step.relabeling)
    tampered = ShredCertificate((tampered_step,) + certificate.steps[1:],
                                certificate.final_zigzag_length)
    result = tz.verify_certificate(bp8, tampered, out)
    assert not result.ok
    assert result.problems

    # wrong claimed output
    wrong = tz.verify_certificate(bp8, certificate, tz.bipyramid(9))
    assert not wrong.ok

    # wrong recorded zigzag length
    wrong_length = ShredCertificate(certificate.steps,
                                    certificate.final_zigzag_length + 2)
    assert not tz.verify_certificate(bp8, wrong_length, out).ok


def test_verify_certificate_rejects_an_empty_fresh_label():
    bp8 = tz.bipyramid(8)
    out, certificate = tz.shred(bp8)
    step = certificate.steps[0]
    (vertex, _label), *rest = step.relabeling
    emptied = ShredStep(step.face, step.bad_type, step.patch_id, step.vertex_map,
                        ((vertex, ""), *rest))
    tampered = ShredCertificate((emptied,) + certificate.steps[1:],
                                certificate.final_zigzag_length)
    result = tz.verify_certificate(bp8, tampered, out)
    assert not result.ok
    assert result.problems[0].startswith("step 0 does not apply")


def test_verify_certificate_empty_on_wrong_pair():
    bp3 = tz.bipyramid(3)
    empty = ShredCertificate((), 2 * len(bp3.edges))
    assert tz.verify_certificate(bp3, empty, bp3).ok
    assert not tz.verify_certificate(bp3, empty, tz.bipyramid(5)).ok


SURFACES = st.sampled_from([(genus, cross_caps) for genus in range(3)
                            for cross_caps in range(4) if genus or cross_caps])


def _draw_sum(genus, cross_caps, data):
    """g tori and k projective planes, summed along drawn faces and maps."""
    summands = ([tz.torus_grid(3, 3) for _ in range(genus)]
                + [tz.projective_plane_fig5() for _ in range(cross_caps)])
    tri = summands[0]
    for other in summands[1:]:
        face = data.draw(st.sampled_from(tri.faces))
        other_face = data.draw(st.sampled_from(other.faces))
        gluing = data.draw(st.sampled_from(tz.enumerate_special_maps(face, other_face)))
        tri = tz.connected_sum(tri, face, other, other_face, gluing).triangulation
    return tri


@settings(max_examples=25, deadline=None)
@given(SURFACES, st.data())
def test_shred_sums_of_tori_and_projective_planes(surface, data):
    # g tori and k projective planes sum to chi = 2 - 2g - k, orientable iff k = 0.
    genus, cross_caps = surface
    tri = _draw_sum(genus, cross_caps, data)
    assert tz.validate(tri).ok
    chi = 2 - 2 * genus - cross_caps
    assert tz.euler_characteristic(tri) == chi
    assert tz.is_orientable(tri) == (cross_caps == 0)
    shredded, certificate = tz.shred(tri)
    assert tz.is_z_knotted(shredded)
    assert tz.euler_characteristic(shredded) == chi
    assert tz.verify_certificate(tri, certificate, shredded).ok


def _check_splice(state, tri):
    """The spliced state against a fresh kernel and classification of ``tri``."""
    assert sorted(face for face in state.faces if face is not None) == list(tri.faces)
    orbits = {}
    for p, orbit in enumerate(state.orbit_of):
        face = state.faces[p // 6]
        if face is not None:
            orbits.setdefault(orbit, set()).add((face, p % 6))
    kernel = zigzag._Kernel(tri)
    assert ({frozenset(orbit) for orbit in orbits.values()}
            == {frozenset((tri.faces[p // 6], p % 6) for p in orbit)
                for orbit in kernel.orbits})
    types = tz.face_types(tri)
    for face in tri.faces:
        s = state.slot[face]
        assert (state.orbit_count(s) > 2) == (types[face].tag in BAD_TAGS)
        assert state.monodromy(s) == tz.z_monodromy(tri, face).image


def _shred_with_checked_splices(tri):
    """``shred``, checking the zigzag state after every splice."""
    splice = _ZigzagState.splice
    spliced = []

    def checked(state, result, removed, added):
        touched = splice(state, result, removed, added)
        _check_splice(state, result)
        spliced.append(result)
        return touched

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ZigzagState, "splice", checked)
        out, certificate = tz.shred(tri)
    assert len(spliced) == len(certificate.steps)
    assert spliced[-1:] == ([out] if certificate.steps else [])
    return out, certificate


def test_splices_match_a_fresh_kernel(named_corpus):
    for tri in named_corpus.values():
        _check_splice(_ZigzagState(tri), tri)
        out, _certificate = _shred_with_checked_splices(tri)
        assert tz.is_z_knotted(out)


@settings(max_examples=15, deadline=None)
@given(SURFACES, st.data())
def test_splices_match_a_fresh_kernel_on_sums(surface, data):
    tri = _draw_sum(*surface, data)
    out, certificate = _shred_with_checked_splices(tri)
    assert certificate.steps
    assert tz.verify_certificate(tri, certificate, out).ok


def _shred_by_reclassifying(tri):
    """The plain loop: classify the whole surface again after every repair."""
    steps = []
    current = tri
    while _bad_faces(current):
        face, tag = _bad_faces(current)[0]
        patch = tz.patch_for(tag)
        gluing = tz.find_gluing_map(current, face, patch)
        result = tz.connected_sum(current, face, patch.triangulation,
                                  patch.designated_face, gluing)
        steps.append(ShredStep(face, tag, patch.patch_id, gluing.pairs,
                               result.relabeling))
        current = result.triangulation
    final_length = tz.all_zigzags(current).zigzags[0].length
    return current, ShredCertificate(tuple(steps), final_length)


def test_shred_matches_the_reclassifying_loop(named_corpus, random_corpus):
    surfaces = (list(named_corpus.values()) + random_corpus[::8]
                + [tz.random_sphere(seed, 25) for seed in range(3)])
    for tri in surfaces:
        out, certificate = tz.shred(tri)
        expected_out, expected = _shred_by_reclassifying(tri)
        assert tz.serialize(out) == tz.serialize(expected_out)
        assert certificate.to_json() == expected.to_json()


def test_shred_classifies_the_whole_surface_at_most_twice(monkeypatch):
    tri = tz.random_sphere(3, 20)
    for tag in ("M5", "M7"):
        tz.patch_for(tag)
    build = monodromy._build_face_types
    built = []
    monkeypatch.setattr(monodromy, "_build_face_types",
                        lambda surface: built.append(surface) or build(surface))
    out, certificate = tz.shred(tri)
    assert len(certificate.steps) > 1
    assert built == [tri, out]


def test_shred_checks_the_lemma_after_every_splice(monkeypatch):
    # A patch face that a splice left met by three zigzags must stop the loop.
    splice = _ZigzagState.splice

    def broken(state, result, removed, added):
        touched = splice(state, result, removed, added)
        base = 6 * state.slot[added[0]]
        state.orbit_of[base:base + 3] = [-3, -2, -1]
        return touched

    monkeypatch.setattr(_ZigzagState, "splice", broken)
    with pytest.raises(AssertionError, match="stopped being locally z-knotted"):
        tz.shred(tz.bipyramid(8))
