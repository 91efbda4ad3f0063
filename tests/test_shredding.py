"""Shredding loop, patches, and certificate replay."""

import collections
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import trizig as tz
from trizig.errors import (FaceNotFound, InvalidMonodromyType, MalformedDocument,
                           NoValidMap, UnclassifiableMonodromy)
from trizig import core, monodromy, shredding, surgery, zigzag
from trizig.cli import main
from trizig.shredding import (BAD_TAGS, PATCH_BP3_M3, PATCH_SPHERE_M1,
                              ShredCertificate, ShredStep)
from trizig.core import _Surface
from trizig.surgery import _glues
from trizig.zigzag import _ZigzagState
from conftest import _bad_faces


def test_patch_for():
    for tag in ("M5", "M6"):
        patch = tz.patch_for(tag)
        assert patch.patch_id == PATCH_SPHERE_M1
        assert patch.designated_face == ("2", "3", "a")
        assert patch.designated_type == "M1"
    assert tz.patch_for("M5") is tz.patch_for("M6")
    m7_patch = tz.patch_for("M7")
    assert m7_patch.patch_id == PATCH_BP3_M3
    assert m7_patch.designated_face == ("1", "2", "a")
    assert m7_patch.designated_type == "M3"
    for tag in ("M1", "M2", "M3", "M4", "junk", None, ["M5"]):
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


@pytest.mark.parametrize("build", [lambda: tz.bipyramid(8), lambda: tz.torus_grid(3, 3),
                                   lambda: tz.random_sphere(3, 20)],
                         ids=["bp8", "torus-3-3", "random-sphere-3-20"])
def test_find_gluing_map_takes_a_face_in_any_vertex_order(build):
    # The map glues the face itself, not one order of its vertices: every
    # order gives the map of the sorted face, the one ``shred_step`` glues,
    # and that map is the first special map that passes the gluing
    # condition.  A patch made by hand, its designated face listed unsorted,
    # reads its own table the same way, and raises where no map glues.
    tri = build()
    bad = _bad_faces(tri)
    assert bad
    unsorted = tz.Patch("bp3-unsorted", tz.bipyramid(3), ("a", "2", "1"), "M3")
    for face, tag in bad:
        for patch in (tz.patch_for(tag), unsorted):
            searched = next((gluing for gluing in tz.enumerate_special_maps(
                face, patch.designated_face) if tz.gluing_condition(
                    tri, face, patch.triangulation, patch.designated_face, gluing)), None)
            assert searched is not None or patch is unsorted
            for order in itertools.permutations(face):
                if searched is None:
                    with pytest.raises(NoValidMap, match="bp3-unsorted"):
                        tz.find_gluing_map(tri, order, patch)
                else:
                    found = tz.find_gluing_map(tri, order, patch)
                    assert found == searched and found.source_face == face


@pytest.mark.parametrize("tag", ["M5", "M7"])
@pytest.mark.parametrize("face", [("1", "2", "a"), ("p", "q", "r"), ("s0.9", "x", "y")])
def test_gluing_table_is_the_search_over_special_maps(tag, face):
    # shred reads each patch's map off a table made once; for every valid
    # monodromy image it is the first special map in enumeration order that
    # satisfies the gluing condition, and an image no map glues raises.
    patch = tz.patch_for(tag)
    other = tz.z_monodromy(patch.triangulation, patch.designated_face).image
    for image, (shape, _witness) in monodromy._SHAPES.items():
        searched = next((gluing for gluing in tz.enumerate_special_maps(
            face, patch.designated_face) if _glues(image, other, gluing)), None)
        if searched is None:
            assert shape not in (("M5", "M6") if tag == "M5" else ("M7",))
            with pytest.raises(NoValidMap, match=f"no special map glues patch "
                                                 f"{patch.patch_id} onto face"):
                shredding._first_gluing(face, image, patch)
        else:
            assert shredding._first_gluing(face, image, patch) == searched


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
    # Any vertex order names the same face.
    assert tz.shred_step(bp8, ("a", "2", "1")) == repaired


@pytest.mark.parametrize("build", [
    lambda: tz.bipyramid(8), lambda: tz.torus_grid(3, 3),
    tz.projective_plane_fig5, lambda: tz.random_sphere(3, 20),
], ids=["bp8", "torus_3_3", "projective_plane", "random_3_20"])
def test_shred_step_is_the_connected_sum_of_the_first_gluing(build):
    # shred_step repairs through shred's step, and gives what a classify,
    # first gluing map and connected sum give on every bad face.
    tri = build()
    bad = _bad_faces(tri)
    assert bad
    sums = []
    for face, tag in bad:
        patch = tz.patch_for(tag)
        gluing = tz.find_gluing_map(tri, face, patch)
        result = tz.connected_sum(tri, face, patch.triangulation,
                                  patch.designated_face, gluing)
        assert tz.serialize(tz.shred_step(tri, face)) == tz.serialize(result.triangulation)
        sums.append((gluing, result))
    # Its first bad face is shred's first logged step: same map, same labels.
    (face, tag), (gluing, result) = bad[0], sums[0]
    record = tz.shred(tri)[1].steps[0]
    assert record == ShredStep(face, tag, tz.patch_for(tag).patch_id,
                               gluing.pairs, result.relabeling)


@pytest.mark.parametrize("build, step, reads", [
    (lambda: tz.random_sphere(3, 40), False, 2),
    (lambda: tz.bipyramid(3), False, 1),
    (lambda: tz.random_sphere(3, 40), True, 1)],
    ids=["shred-random-sphere-3-40", "shred-bp3", "shred-step-random-sphere-3-40"])
def test_shredding_reads_one_step_map_per_surface(monkeypatch, build, step, reads):
    # The zigzag state is linked off the orbits of the input's atlas, so
    # ``shred`` reads the step map of its input once, for that atlas, and
    # that of its output once, for the closing knottedness check; a
    # knotted input is its own output.  ``shred_step`` reads its input's,
    # for that atlas too.  Only the atlas reads a step map.
    _warm_patches()
    face = _bad_faces(build())[0][0] if step else None
    tri = tz.parse(tz.serialize(build()))
    step_map, read = zigzag._step_map, []

    def counted(across):
        read.append(len(across))
        return step_map(across)

    monkeypatch.setattr(zigzag, "_step_map", counted)
    out = tz.shred_step(tri, face) if step else tz.shred(tri)[0]
    assert read == [len(tri.across), len(out.across)][:reads]


def test_a_state_on_every_face_is_the_step_map(named_corpus):
    # Linked along the atlas's orbits over every face, the state steps each
    # position as the corner table does.
    for tri in list(named_corpus.values()) + [tz.random_sphere(seed, seed % 7)
                                              for seed in range(20)]:
        state = _ZigzagState(tz.ZigzagAtlas(tri)._orbits, range(len(tri.faces)))
        assert state.step == zigzag._step_map(tri.across)


def test_shred_step_reads_no_step_map_once_its_input_has_an_atlas(monkeypatch,
                                                                 named_corpus):
    # A step links its state off the orbits of its input's cached atlas, so
    # once that atlas is built, no step map is read again, and the step
    # repairs as it does on a fresh parse.
    step_map, read = zigzag._step_map, []

    def counted(across):
        read.append(len(across))
        return step_map(across)

    monkeypatch.setattr(zigzag, "_step_map", counted)
    stepped = 0
    for tri in named_corpus.values():
        bad = _bad_faces(tri)
        if not bad:
            continue
        fresh, atlased = tz.parse(tz.serialize(tri)), tz.parse(tz.serialize(tri))
        expected = tz.shred_step(fresh, bad[0][0])
        atlas = tz.all_zigzags(atlased)
        del read[:]
        assert tz.shred_step(atlased, bad[0][0]) == expected
        assert read == [] and zigzag._atlas(atlased) is atlas
        stepped += 1
    assert stepped


def test_shred_step_rejects_good_faces():
    bp3 = tz.bipyramid(3)
    with pytest.raises(InvalidMonodromyType):
        tz.shred_step(bp3, ("1", "2", "a"))


def test_shred_step_rejects_an_absent_face():
    with pytest.raises(FaceNotFound):
        tz.shred_step(tz.bipyramid(8), ("1", "2", "9"))


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
    result = tz.verify_certificate(bp8, certificate, out)
    assert result.ok and bool(result) and result.problems == ()


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
    assert not result
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
    assert _odd_gauss_gaps(shredded) == 0 or cross_caps


def _odd_gauss_gaps(tri):
    """How many symbols of ``gauss_code(tri)`` recur after an odd gap,
    checking the Gauss-code parity law at every symbol.

    Symbol "u-v" names edge (u, v).  Cyclically, edges e_i and e_i+1 lie in
    one face F_i, and the crossing from F_i-1 into F_i across e_i is
    incoherent when both faces, each run a -> b -> c -> a by its sorted
    triple (a, b, c), run e_i the same way.  For the occurrences i < j of a
    symbol, the incoherent crossings i+1..j-1, and the one from F_j-1 back
    into F_i across e_i when those faces differ, close a loop of faces; the
    law is that their count has the parity of the gap j - i - 1.
    """
    word = [tuple(symbol.split("-")) for symbol in tz.gauss_code(tri)]
    n = len(word)
    faces = [tz.make_face(*set(word[i]) | set(word[(i + 1) % n])) for i in range(n)]
    assert all(tri.has_face(face) for face in faces)

    def incoherent(one, two, edge):
        # A sorted triple (a, b, c) runs its edge (a, c) backwards, c -> a.
        return (edge == (one[0], one[2])) == (edge == (two[0], two[2]))

    first, odd = {}, 0
    for j, edge in enumerate(word):
        i = first.setdefault(edge, j)
        if i == j:
            continue
        count = sum(incoherent(faces[k - 1], faces[k], word[k]) for k in range(i + 1, j))
        if faces[j - 1] != faces[i]:
            count += incoherent(faces[j - 1], faces[i], edge)
        assert count % 2 == (j - i - 1) % 2, (edge, i, j)
        odd += (j - i - 1) % 2
    assert n == 2 * len(first)
    return odd


def test_gauss_code_parity_law(named_corpus):
    # Every gap is even on an orientable surface; the projective plane and
    # the Klein bottle (its sum with a second copy) have odd gaps.
    rp2, other = tz.projective_plane_fig5(), tz.projective_plane_fig5()
    gluing = tz.enumerate_special_maps(rp2.faces[0], other.faces[0])[0]
    klein = tz.connected_sum(rp2, rp2.faces[0], other, other.faces[0], gluing)
    for tri in list(named_corpus.values()) + [klein.triangulation]:
        shredded, _certificate = tz.shred(tri)
        assert (_odd_gauss_gaps(shredded) == 0) == tz.is_orientable(tri)


def _type_two_edges(tri):
    """The edges that the directed zigzag of a z-knotted ``tri`` runs both
    ways.  It runs every edge twice; an edge is of type II when its two runs
    go opposite ways, and of type I when they go the same way."""
    tails = collections.defaultdict(list)
    for dart in tz.all_zigzags(tri).zigzags[0].darts:
        tails[dart.edge].append(dart.tail)
    assert len(tails) == len(tri.edges)
    assert all(len(runs) == 2 for runs in tails.values())
    return {edge for edge, (one, two) in tails.items() if one != two}


def test_edge_type_law(named_corpus, knotted_corpus):
    # On a z-knotted surface every M1 or M2 face has no edge of type II and
    # every M3 or M4 face has two: on shredded outputs, whose faces take all
    # four types, and on the z-knotted inputs of the corpus.
    surfaces = [tz.shred(tri)[0] for tri in named_corpus.values()]
    surfaces += [tz.shred(tz.random_sphere(seed, 10))[0] for seed in range(30)]
    surfaces += knotted_corpus
    seen = collections.Counter()
    for tri in surfaces:
        type_two = _type_two_edges(tri)
        for face, mtype in tz.face_types(tri).items():
            count = len(type_two.intersection(tz.face_edges(face)))
            assert count == (0 if mtype.tag in ("M1", "M2") else 2), (face, mtype)
            seen[mtype.tag] += 1
    assert set(seen) == {"M1", "M2", "M3", "M4"}


def test_reading_the_zigzags_first_leaves_shredding_unchanged(named_corpus):
    # ``shred`` reads the input's zigzag pairs off the cached atlas, so
    # listing the zigzags of the input first, which builds and pairs its
    # ``Zigzag`` objects, must leave the orbit and partner tables as they were.
    builds = [lambda tri=tri: tz.parse(tz.serialize(tri)) for tri in named_corpus.values()]
    builds += [lambda seed=seed: tz.random_sphere(seed, 6) for seed in range(20)]
    for build in builds:
        fresh, fresh_certificate = tz.shred(build())
        tri = build()
        assert tz.all_zigzags(tri).zigzags
        out, certificate = tz.shred(tri)
        assert tz.serialize(out) == tz.serialize(fresh)
        assert certificate.to_json() == fresh_certificate.to_json()


def _check_splice(state, tri, inputs, planned, added=()):
    """The spliced state against a fresh atlas and classification of ``tri``,
    the glued surface, whose input had the face tuple ``inputs``; the state
    was made with the input faces of the indices listed in ``planned``, and
    ``added`` holds the faces the last glue added."""
    # The state never grows: it covers the planned positions only.
    assert len(state.step) == 6 * len(planned)
    listed = [inputs[f] for f in planned]
    live = [tri.has_face(face) for face in listed]
    base = {face: 6 * i for i, face in enumerate(listed)}
    # Each live planned position steps to the next planned position on its
    # fresh orbit, every other position between skipped.
    seen = 0
    for orbit in tz.ZigzagAtlas(tri)._orbits:
        here = [base[tri.faces[p // 6]] + p % 6 for p in orbit if tri.faces[p // 6] in base]
        seen += len(here)
        for p, q in zip(here, here[1:] + here[:1]):
            assert state.step[p] == q
    assert seen == 6 * sum(live)
    # Each planned tombstone position steps to itself.
    assert all(state.step[p] == p for i, alive in enumerate(live) if not alive
               for p in range(6 * i, 6 * i + 6))
    types = tz.face_types(tri)
    # The lemma: every patch face is met by one zigzag pair.
    assert all(types[face].tag not in BAD_TAGS for face in added)
    for i, face in enumerate(listed):
        if live[i]:
            assert state.monodromy(i) == tz.z_monodromy(tri, face).image


def _successors(tri):
    """Each position's successor on its orbit, read off a fresh atlas."""
    after = [0] * (6 * len(tri.faces))
    for orbit in tz.ZigzagAtlas(tri)._orbits:
        for p, q in zip(orbit, orbit[1:] + orbit[:1]):
            after[p] = q
    return after


def _read_transit(tri, before, face, summed):
    """The transit of the sum ``summed`` of a patch onto ``face`` of ``tri``,
    read off a fresh atlas of each (``before`` is ``tri``'s successors): the
    arc that stepped into ``face`` in place of seed j now crosses the patch,
    and leaves it where seed ``transit[j]`` stepped out."""
    f = tri.faces.index(face)
    after = _successors(summed)

    def at(p):  # a position of a face of ``tri`` but ``face`` in ``summed``
        return 6 * summed.faces.index(tri.faces[p // 6]) + p % 6

    seed_of = {at(before[6 * f + r]): r for r in range(6)}
    entries = {q - 6 * f: p for p, q in enumerate(before) if q // 6 == f}
    transit = []
    for j in range(6):
        q = after[at(entries[j])]
        while q not in seed_of:
            q = after[q]
        transit.append(seed_of[q])
    return transit


@pytest.mark.parametrize("build", [lambda: tz.torus_grid(4, 5), tz.projective_plane_fig5,
                                   lambda: tz.random_sphere(1, 12)],
                         ids=["torus-4-5", "projective-plane", "random-sphere-1-12"])
def test_transit_is_read_off_a_fresh_atlas_of_the_sum(build):
    # Every special map of both patches onto every bad face, whether or not
    # it satisfies the gluing condition: the patch routes the arcs as the
    # formula says.
    tri = build()
    bad, before = _bad_faces(tri), _successors(tri)
    assert bad
    for tag in ("M5", "M7"):
        patch = tz.patch_for(tag)
        other = tz.z_monodromy(patch.triangulation, patch.designated_face).image
        for face, _tag in bad:
            for gluing in tz.enumerate_special_maps(face, patch.designated_face):
                surface = _Surface(tri)
                surface.glue(face, patch.triangulation, patch.designated_face, gluing)
                assert surgery._transit(gluing, other) == _read_transit(
                    tri, before, face, surface.freeze())


def _warm_patches():
    """Build both patches, so that the glues made to build them are not
    recorded as repairs."""
    for tag in ("M5", "M7"):
        tz.patch_for(tag)


def _shred_with_checked_splices(tri, splice=_ZigzagState.splice):
    """``shred`` splicing with ``splice``, checking the zigzag state after
    every splice against a fully validated triangulation of the surface's
    faces."""
    _warm_patches()
    # The input indices of the faces that ``shred`` plans to repair, in order.
    planned = [tri.faces.index(step.face) for step in tz.shred(tri)[1].steps]
    glue = _Surface.glue
    surfaces, glued, spliced = [], [], []

    def recording(surface, *args, **kwargs):
        surfaces.append(surface)
        result = glue(surface, *args, **kwargs)
        glued.append(result[0])
        return result

    def checked(state, *rest):
        through = splice(state, *rest)
        current = tz.Triangulation(list(surfaces[-1].slot))
        _check_splice(state, current, tri.faces, planned, glued[-1])
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
        everything = range(len(tri.faces))
        state = _ZigzagState(tz.ZigzagAtlas(tri)._orbits, everything)
        _check_splice(state, tri, tri.faces, everything)
        out, _certificate = _shred_with_checked_splices(tri)
        assert tz.is_z_knotted(out)


def test_a_state_on_the_planned_faces_links_them_along_their_orbits():
    # The state that ``shred`` makes holds only its planned faces' positions:
    # each steps to the next planned position on its atlas orbit, and each
    # planned face's monodromy is its z-monodromy on the whole surface.
    tri = tz.random_sphere(3, 40)
    plan = [step.face for step in tz.shred(tri)[1].steps]
    assert 0 < len(plan) < len(tri.faces)
    planned = [tri.faces.index(face) for face in plan]
    state = _ZigzagState(tz.ZigzagAtlas(tri)._orbits, planned)
    _check_splice(state, tri, tri.faces, planned)


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
    # ``shred``'s choice of the faces to repair, against the plain loop.
    expected_out, expected = _shred_by_reclassifying(tri)
    assert tz.serialize(out) == tz.serialize(expected_out)
    assert certificate.to_json() == expected.to_json()


def _check_count_identity(tri):
    """A repair of a face met by k zigzags lowers their count by k - 2, on
    fresh atlases of the surface before and after each sum."""
    _warm_patches()
    glue, splice = _Surface.glue, _ZigzagState.splice
    drops = []

    def counted_glue(surface, face, *args, **kwargs):
        before = tz.Triangulation(list(surface.slot))
        result = glue(surface, face, *args, **kwargs)
        after = tz.all_zigzags(tz.Triangulation(list(surface.slot)))
        drops.append([len(zigzag._face_orbit_ids(before, face)),
                      tz.all_zigzags(before).count - after.count])
        return result

    def counted_splice(state, *rest):
        through = splice(state, *rest)
        drops[-1].append(through)
        return through

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Surface, "glue", counted_glue)
        patch.setattr(_ZigzagState, "splice", counted_splice)
        _out, certificate = tz.shred(tri)
    assert len(drops) == len(certificate.steps)
    assert all(drop == k - 2 and through == 2 for k, drop, through in drops), drops
    # So the drops add up from the input's zigzag count to one pair.
    assert sum(drop for _k, drop, _through in drops) == tz.all_zigzags(tri).count - 2


def test_each_repair_lowers_the_zigzag_count_by_k_minus_2(named_corpus):
    for tri in named_corpus.values():
        _check_count_identity(tri)


@settings(max_examples=15, deadline=None)
@given(SURFACES, st.data())
def test_each_repair_lowers_the_zigzag_count_by_k_minus_2_on_sums(surface, data):
    _check_count_identity(_draw_sum(*surface, data))


@pytest.mark.parametrize("check", [_shred_with_checked_splices, _check_count_identity],
                         ids=["checked-splices", "count-identity"])
def test_the_splice_recorders_run_on_a_cold_patch_cache(check):
    # Building the ``sphere-m1`` patch glues, through ``example_sum``, on
    # surfaces of its own; a recorder installed before the patches are
    # built would take those glues for repairs.
    shredding._load_patch.cache_clear()
    check(tz.bipyramid(8))


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


def test_analysis_shredding_and_replay_build_no_edge_map():
    # The corner table serves them all; the edge-to-faces map is built only
    # when read.
    tri = tz.parse(tz.serialize(tz.random_sphere(3, 20)))
    tz.is_z_knotted(tri)
    tz.all_zigzags(tri).count
    tz.face_types(tri)
    tz.is_orientable(tri)
    out, certificate = tz.shred(tri)
    assert tz.verify_certificate(tri, certificate, out).ok
    assert "edge_faces" not in tri._cache and "edge_faces" not in out._cache
    assert tri.edge_faces is tri.edge_faces  # built once, then kept


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


def test_shred_names_the_first_face_of_an_unknown_monodromy(monkeypatch):
    # The closing check classifies each distinct image once; an unknown one
    # still names its first face in face order.
    tri = tz.bipyramid(8)
    for tag in ("M5", "M7"):
        tz.patch_for(tag)
    build = monodromy._build_monodromies
    output = []

    def forced(surface):
        images = build(surface)
        if surface is not tri:
            images[5], images[2] = (1, 0, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4)
            output.append(surface)
        return images

    monkeypatch.setattr(monodromy, "_build_monodromies", forced)
    with pytest.raises(UnclassifiableMonodromy) as raised:
        tz.shred(tri)
    face = output[0].faces[2]
    assert str(raised.value) == (f"monodromy (0, 1, 2, 3, 5, 4) of face {face} "
                                 f"(local dart indices) matches no shape")


@pytest.mark.parametrize("make, args", [(tz.torus_grid, (4, 5)), (tz.random_sphere, (3, 40))],
                         ids=["torus-4-5", "random-sphere-3-40"])
def test_shred_asks_no_pairs_after_the_last_repair(monkeypatch, make, args):
    # The plan asks the union-find for the six seeds' classes of each bad
    # face in canonical order.  Once the planned repairs join every zigzag
    # pair into one class, no bad face is left, so it stops asking, and
    # every repair comes after the last question.
    tri = make(*args)
    events = []
    root, repair = shredding._root, shredding._repair
    monkeypatch.setattr(shredding, "_root",
                        lambda parent, c: events.append("root") or root(parent, c))
    monkeypatch.setattr(shredding, "_repair",
                        lambda *args: events.append("repair") or repair(*args))
    out, certificate = tz.shred(tri)
    repairs = len(certificate.steps)
    assert events.count("repair") == repairs > 0
    assert events[-repairs:] == ["repair"] * repairs
    bad = [face for face, _tag in _bad_faces(tri)]
    asked = bad.index(certificate.steps[-1].face) + 1
    assert events.count("root") == 6 * asked < 6 * len(bad)
    assert tz.verify_certificate(tri, certificate, out).ok


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

    def transposed(state, removed, monodromy, *rest):
        image = list(monodromy)
        image[i], image[j] = image[j], image[i]
        return splice(state, removed, image, *rest)

    monkeypatch.setattr(_ZigzagState, "splice", transposed)
    with pytest.raises(AssertionError, match="repairing"):
        tz.shred(make(*args))


@pytest.mark.parametrize("make, args", [(tz.bipyramid, (8,)), (tz.bipyramid, (6,)),
                                        (tz.random_sphere, (3, 40)), (tz.torus_grid, (4, 5))],
                         ids=["bp8", "bp6", "random-sphere-3-40", "torus-4-5"])
@pytest.mark.parametrize("i, j", [(0, 1), (0, 3), (2, 5), (1, 4)])
def test_shred_refuses_a_splice_given_a_wrong_transit(monkeypatch, make, args, i, j):
    # A transit with two entries swapped routes two arcs through the patch
    # wrongly; the cycles through the patch change by one and the count is off.
    splice = _ZigzagState.splice

    def swapped(state, removed, monodromy, transit):
        transit = list(transit)
        transit[i], transit[j] = transit[j], transit[i]
        return splice(state, removed, monodromy, transit)

    monkeypatch.setattr(_ZigzagState, "splice", swapped)
    with pytest.raises(AssertionError, match="repairing"):
        tz.shred(make(*args))


def _two_cycles(transit, image):
    """Whether the arcs through a patch of transit ``transit``, glued onto a
    face of z-monodromy ``image``, make two cycles, as the right transit's do."""
    cycles, seen = 0, set()
    for start in range(6):
        cycles += start not in seen
        r = start
        while r not in seen:
            seen.add(r)
            r = transit[core.OMEGA_ROTATION[image[r]]]
    return cycles == 2


def test_the_splice_check_refuses_a_wrong_transit_of_two_cycles():
    # ``_Surface.glue`` builds the output whatever the state says, so a
    # transit that routes the arcs wrongly but still makes two cycles
    # through the patch passes the splice's own count; the fresh-atlas
    # check of the state must refuse it at that splice, the first of six.
    tri = tz.torus_grid(3, 4)
    assert len(tz.shred(tri)[1].steps) == 6
    splice, spliced = _ZigzagState.splice, []

    def rerouted(state, removed, image, transit):
        if not spliced:
            transit = next(list(other) for other in itertools.permutations(range(6))
                           if list(other) != list(transit) and _two_cycles(other, image))
        spliced.append(transit)
        through = splice(state, removed, image, transit)
        assert through == 2
        return through

    with pytest.raises(AssertionError) as refused:
        _shred_with_checked_splices(tri, rerouted)
    assert len(spliced) == 1
    assert any(entry.name == "_check_splice" for entry in refused.traceback)


@pytest.mark.parametrize("make, args, index", [(tz.torus_grid, (3, 4), 24),
                                               (tz.random_sphere, (3, 20), 43)],
                         ids=["torus-3-4", "random-sphere-3-20"])
def test_a_broken_state_raises_instead_of_walking_forever(monkeypatch, make, args, index):
    # Fed at every splice the same wrong transit of two cycles, the state
    # soon holds a cycle of planned positions that misses the face being
    # walked; the walk is bounded by the state's size, so it raises.
    splice = _ZigzagState.splice

    def rerouted(state, removed, image, transit):
        wrong = [list(other) for other in itertools.permutations(range(6))
                 if list(other) != list(transit) and _two_cycles(other, image)]
        return splice(state, removed, image, wrong[index])

    monkeypatch.setattr(_ZigzagState, "splice", rerouted)
    with pytest.raises(AssertionError, match="never returns"):
        tz.shred(make(*args))


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
    # sha256 of `trizig zigzags --json`, recorded while the orbits were still
    # numbered in (tail, head, face) order of their least positions.
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
