"""Shredding loop, patches, and certificate replay."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

import trizig as tz
from trizig.errors import InvalidMonodromyType, MalformedDocument, UnclassifiableMonodromy
from trizig import monodromy, shredding, zigzag
from trizig.cli import main
from trizig.shredding import (BAD_TAGS, PATCH_BP3_M3, PATCH_SPHERE_M1,
                              ShredCertificate, ShredStep, _bad_faces)
from trizig.core import _Surface
from trizig.surgery import _glues
from trizig.zigzag import _ZigzagState


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
    for tri, face in [(tz.bipyramid(8), ("1", "2", "a")),
                      (tz.bipyramid(6), ("1", "2", "a"))]:
        tag = tz.face_types(tri)[face].tag
        patch = tz.patch_for(tag)
        gluing = tz.find_gluing_map(tri, face, patch)
        result = tz.connected_sum(tri, face, patch.triangulation,
                                  patch.designated_face, gluing)
        repaired = result.triangulation
        # The same step is the first that shred records: the least bad face.
        record = tz.shred(tri)[1].steps[0]
        assert record == ShredStep(face, tag, patch.patch_id, gluing.pairs,
                                   result.relabeling)
        assert record.bad_type == tag
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


def test_certificate_requires_arrays_for_steps_and_faces():
    # A string face would unpack into its characters and an object of steps
    # would iterate as zero steps; both must be refused, not replayed.
    _, certificate = tz.shred(tz.bipyramid(8))
    doc = json.loads(certificate.to_json())
    doc["steps"][0]["face"] = "".join(doc["steps"][0]["face"])
    assert doc["steps"][0]["face"] == "12a"
    with pytest.raises(MalformedDocument, match="JSON arrays"):
        ShredCertificate.from_json(json.dumps(doc))
    doc["steps"] = {}
    with pytest.raises(MalformedDocument, match="JSON arrays"):
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


def test_verify_certificate_checks_the_recorded_type():
    bp8 = tz.bipyramid(8)
    out, certificate = tz.shred(bp8)
    step = certificate.steps[0]
    assert (step.bad_type, step.patch_id) == ("M5", PATCH_SPHERE_M1)

    def retyped(bad_type):
        changed = ShredStep(step.face, bad_type, step.patch_id, step.vertex_map,
                            step.relabeling)
        return ShredCertificate((changed,) + certificate.steps[1:],
                                certificate.final_zigzag_length)

    assert tz.verify_certificate(bp8, retyped("M6"), out).ok
    unknown = tz.verify_certificate(bp8, retyped("M9"), out)
    assert not unknown.ok
    assert unknown.problems[0].startswith("step 0 does not apply")
    assert "M9" in unknown.problems[0]
    mismatched = tz.verify_certificate(bp8, retyped("M7"), out)
    assert mismatched.problems == (
        "step 0 records patch 'sphere-m1', but a M7 face takes 'bp3-m3'",)


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


def test_verify_certificate_reports_a_target_differing_by_one_face():
    bp8 = tz.bipyramid(8)
    out, certificate = tz.shred(bp8)
    # Subdivide one face of the true output at a new vertex "x".
    a, b, c = out.faces[20]
    assert (a, b, c) == ("5", "6", "b")
    target = tz.Triangulation([face for face in out.faces if face != (a, b, c)]
                              + [(a, b, "x"), (a, c, "x"), (b, c, "x")])
    result = tz.verify_certificate(bp8, certificate, target)
    assert result.problems == (
        "replayed output differs from target: replay has 40 face(s) vs 42, "
        "first differing face ('5', '6', 'b')",
        "target is not z-knotted")


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
    pairs = {}
    for p, c in enumerate(state.orbit_of):
        face = state.faces[p // 6]
        if face is not None:
            pairs.setdefault(zigzag._root(state.parent, c), set()).add((face, p % 6))
    # The state's pair classes are the fresh orbits, each joined with its reverse.
    kernel = zigzag._Kernel(tri)
    partners = zigzag._partners(kernel)
    fresh_pairs = {}
    for i, orbit in enumerate(kernel.orbits):
        fresh_pairs.setdefault(min(i, partners[i]), set()).update(
            (tri.faces[p // 6], p % 6) for p in orbit)
    assert ({frozenset(pair) for pair in pairs.values()}
            == {frozenset(pair) for pair in fresh_pairs.values()})
    # The step table itself, entry by entry, as (face, k) -> (face, k).
    index = {face: f for f, face in enumerate(tri.faces)}
    for s, face in enumerate(state.faces):
        for k in range(6 if face is not None else 0):
            spliced = state.step[6 * s + k]
            fresh = kernel.step[6 * index[face] + k]
            assert ((state.faces[spliced // 6], spliced % 6)
                    == (tri.faces[fresh // 6], fresh % 6))
    types = tz.face_types(tri)
    for face in tri.faces:
        s = state.slot[face]
        assert (state.orbit_count(s) > 2) == (types[face].tag in BAD_TAGS)
        assert state.monodromy(s) == tz.z_monodromy(tri, face).image


def _shred_with_checked_splices(tri):
    """``shred``, checking the zigzag state after every splice against a
    fully validated triangulation of the surface's faces."""
    glue, splice = _Surface.glue, _ZigzagState.splice
    surfaces, spliced = [], []

    def recording(surface, *args, **kwargs):
        surfaces.append(surface)
        return glue(surface, *args, **kwargs)

    def checked(state, edge_faces, removed, added, monodromy):
        through = splice(state, edge_faces, removed, added, monodromy)
        assert edge_faces is surfaces[-1].edge_faces
        current = tz.Triangulation(surfaces[-1].faces)
        _check_splice(state, current)
        spliced.append(current)
        return through

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Surface, "glue", recording)
        patch.setattr(_ZigzagState, "splice", checked)
        out, certificate = tz.shred(tri)
    assert len(spliced) == len(certificate.steps)
    assert all(surface is surfaces[0] for surface in surfaces)  # one surface
    assert spliced[-1:] == ([out] if certificate.steps else [])
    return out, certificate


def test_splices_match_a_fresh_kernel(named_corpus):
    for tri in named_corpus.values():
        _check_splice(_ZigzagState(tri), tri)
        out, _certificate = _shred_with_checked_splices(tri)
        assert tz.is_z_knotted(out)


def test_splices_match_a_fresh_kernel_on_random_spheres(random_corpus):
    for tri in random_corpus[::8] + [tz.random_sphere(3, 40)]:
        out, _certificate = _shred_with_checked_splices(tri)
        assert tz.is_z_knotted(out)


@settings(max_examples=15, deadline=None)
@given(SURFACES, st.data())
def test_splices_match_a_fresh_kernel_on_sums(surface, data):
    tri = _draw_sum(*surface, data)
    out, certificate = _shred_with_checked_splices(tri)
    assert certificate.steps
    assert tz.verify_certificate(tri, certificate, out).ok


def _check_count_identity(tri):
    """A repair of a face met by k zigzags lowers their count by k - 2, on
    fresh kernels of the surface before and after each sum."""
    glue, splice = _Surface.glue, _ZigzagState.splice
    drops = []

    def counted_glue(surface, face, *args, **kwargs):
        before = tz.Triangulation(surface.faces)
        result = glue(surface, face, *args, **kwargs)
        after = zigzag._Kernel(tz.Triangulation(surface.faces))
        drops.append([len(zigzag._face_orbit_ids(before, face)),
                      len(zigzag._kernel(before).orbits) - len(after.orbits)])
        return result

    def counted_splice(state, edge_faces, removed, added, monodromy):
        assert state.orbit_count(state.slot[removed]) == drops[-1][0]
        through = splice(state, edge_faces, removed, added, monodromy)
        drops[-1].append(through)
        return through

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Surface, "glue", counted_glue)
        patch.setattr(_ZigzagState, "splice", counted_splice)
        _out, certificate = tz.shred(tri)
    assert len(drops) == len(certificate.steps)
    assert all(drop == k - 2 and through == 2 for k, drop, through in drops), drops
    # So the drops add up from the input's zigzag count to one pair.
    assert sum(drop for _k, drop, _through in drops) == len(zigzag._kernel(tri).orbits) - 2


def test_each_repair_lowers_the_zigzag_count_by_k_minus_2(named_corpus):
    for tri in named_corpus.values():
        _check_count_identity(tri)


@settings(max_examples=15, deadline=None)
@given(SURFACES, st.data())
def test_each_repair_lowers_the_zigzag_count_by_k_minus_2_on_sums(surface, data):
    _check_count_identity(_draw_sum(*surface, data))


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
    build_types, build_maps = monodromy._build_face_types, monodromy._build_monodromies
    typed, mapped = [], []
    monkeypatch.setattr(monodromy, "_build_face_types",
                        lambda surface: typed.append(surface) or build_types(surface))
    monkeypatch.setattr(monodromy, "_build_monodromies",
                        lambda surface: mapped.append(surface) or build_maps(surface))
    out, certificate = tz.shred(tri)
    assert len(certificate.steps) > 1
    # The output's monodromies are matched against the shapes, not typed.
    assert typed == [tri]
    assert mapped == [tri, out]


@pytest.mark.parametrize("image, error, message", [
    (monodromy._SHAPE_SLOTS["M5"], AssertionError, "postcondition"),
    ((1, 0, 2, 3, 4, 5), UnclassifiableMonodromy, "matches no shape"),
], ids=["M5", "unclassifiable"])
def test_shred_refuses_an_output_face_of_a_bad_shape(monkeypatch, image, error, message):
    tri = tz.bipyramid(8)
    for tag in ("M5", "M7"):
        tz.patch_for(tag)
    build = monodromy._build_monodromies

    def forced(surface):
        images = build(surface)
        if surface is not tri:
            images[0] = image
        return images

    monkeypatch.setattr(monodromy, "_build_monodromies", forced)
    with pytest.raises(error, match=message):
        tz.shred(tri)


@pytest.mark.parametrize("make, args", [(tz.bipyramid, (6,)), (tz.random_sphere, (3, 40))],
                         ids=["bp6", "random-sphere-3-40"])
def test_shred_refuses_a_map_that_fails_the_gluing_condition(monkeypatch, make, args):
    # Every special map glues the identity-face patch onto an M5/M6 face, so
    # only an M7 face can take a wrong one; M5/M6 faces keep the right map.
    first_gluing = shredding._first_gluing
    wrong = []

    def failing(face, monodromy, patch):
        other = tz.z_monodromy(patch.triangulation, patch.designated_face).image
        gluing = next((gluing for gluing in tz.enumerate_special_maps(
            face, patch.designated_face) if not _glues(monodromy, other, gluing)), None)
        wrong.append(gluing)
        return first_gluing(face, monodromy, patch) if gluing is None else gluing

    monkeypatch.setattr(shredding, "_first_gluing", failing)
    with pytest.raises(AssertionError, match="repairing"):
        tz.shred(make(*args))
    assert wrong[-1] is not None


@pytest.mark.parametrize("make, args", [(tz.bipyramid, (8,)), (tz.random_sphere, (3, 40)),
                                        (tz.torus_grid, (4, 5))],
                         ids=["bp8", "random-sphere-3-40", "torus-4-5"])
@pytest.mark.parametrize("i, j", [(0, 1), (0, 3), (2, 5)])
def test_shred_refuses_a_splice_given_a_wrong_monodromy(monkeypatch, make, args, i, j):
    # A splice jumps each host arc by the monodromy; with two images
    # transposed the arcs rejoin wrongly and the patch count is off.
    splice = _ZigzagState.splice

    def transposed(state, edge_faces, removed, added, monodromy):
        image = list(monodromy)
        image[i], image[j] = image[j], image[i]
        return splice(state, edge_faces, removed, added, image)

    monkeypatch.setattr(_ZigzagState, "splice", transposed)
    with pytest.raises(AssertionError, match="repairing"):
        tz.shred(make(*args))


def test_shred_refuses_a_splice_that_breaks_the_patch_pair(monkeypatch):
    # A splice links its new edges from a set; swapping two step entries of
    # the last added face afterwards keeps a permutation but reroutes orbits.
    link = zigzag._link

    def swapped(step, slot, edge_faces, edges):
        link(step, slot, edge_faces, edges)
        if isinstance(edges, set):
            b = len(step) - 6
            step[b], step[b + 1] = step[b + 1], step[b]

    monkeypatch.setattr(zigzag, "_link", swapped)
    with pytest.raises(AssertionError, match="repairing"):
        tz.shred(tz.bipyramid(8))


def _projective_plane_plus_bp6():
    face, other = ("a", "c", "d"), ("1", "2", "a")
    gluing = tz.enumerate_special_maps(face, other)[1]
    return tz.connected_sum(tz.projective_plane_fig5(), face, tz.bipyramid(6),
                            other, gluing).triangulation


def test_outputs_match_their_recorded_digests():
    # sha256 digests recorded before sums were glued in place on one surface.
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(tz.serialize(tz.random_sphere(3, 400))) == (
        "ef1ff71b1b7d4b7e748f82bad6f5e7c1bcece8869be26d1aa07e4f43fe92ef6e")
    pinned = [
        (tz.random_sphere(3, 60), 18,
         "d3e8b4b09e5ed454449ba7d924bcc27fe3da3c125c873f05f5ebd1c8e07e9ad5",
         "d260a4d2ed4dc804e4d13087e15b9de0e98442b65db03f41b60a38d6b9bf5c3c"),
        (tz.torus_grid(4, 5), 8,
         "9e7505ce4fd7bab4da62fa8a61deb7175e577fdbb1bd8c935de3e6a771decf1e",
         "57c57b5812ef1a9c43e7375ad489a499b82d4e9a016a34d7d8e8690a0b9c75b9"),
        (tz.example_sum("m6", 1, 1), 1,
         "5c484c884f429f7c4342029960bbde79d7afee488806c16f101f54b0480b66fb",
         "31ba4291f88b49eea990395836212623201da1e4d8b911aa98b24fed3da8ceb8"),
        (_projective_plane_plus_bp6(), 4,
         "b0d44e2b8f330215bedda90fbe559420ae28096a26d3b0a1c6e9a7049f7070ab",
         "8e78a7c0aa5434aaa86ff39659fa0a05b3ca732bf7f161fbfb628e7f1b12f806"),
    ]
    for tri, steps, output, certificate in pinned:
        out, cert = tz.shred(tri)
        assert len(cert.steps) == steps
        assert digest(tz.serialize(out)) == output
        assert digest(cert.to_json()) == certificate


def test_zigzag_listings_match_their_recorded_digests(tmp_path, capsys):
    # sha256 of `trizig zigzags --json`, recorded while the kernel still
    # numbered its orbits in (tail, head, face) order of their least positions.
    pinned = [
        (tz.torus_grid(20, 21),
         "a0ec07384c597f9ebe56211c36e3958ece9bfa4549adb2c301ff2584e47b280c"),
        (tz.random_sphere(3, 60),
         "0eae5b921ef33bfaea1f22b5d639ca67e715089def8a994d40b3dd9fa9b539c2"),
        (tz.projective_plane_fig5(),
         "9d5d01c7633c72e230a098bb55d99f419ce71d2e0e6c1ff017e6576dc2a86adf"),
        (tz.example_sum("m6", 1, 1),
         "283205f92a1fdff8b503a656ba10dea5728faf32abc02bd586c112efae56199c"),
    ]
    path = tmp_path / "in.json"
    for tri, expected in pinned:
        path.write_text(tz.serialize(tri))
        assert main(["zigzags", "--json", str(path)]) == 0
        listing = capsys.readouterr().out
        assert hashlib.sha256(listing.encode()).hexdigest() == expected
