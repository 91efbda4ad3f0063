"""tri-json/1 parsing and canonical serialization."""

import gc
import json
import random
import tracemalloc

import pytest

import trizig as tz
from trizig.document import FORMAT, parse_document
from trizig.errors import MalformedDocument, ValidationFailure
from trizig.shredding import CERTIFICATE_FORMAT, ShredCertificate, ShredStep


def test_round_trip_named(named_corpus):
    for tri in named_corpus.values():
        text = tz.serialize(tri)
        assert tz.parse(text) == tri
        # canonical: serializing the parse reproduces the bytes
        assert tz.serialize(tz.parse(text)) == text


def test_serialize_is_canonical_and_stable():
    one = tz.serialize(tz.bipyramid(3))
    two = tz.serialize(tz.bipyramid(3))
    assert one == two
    # permuting the face list or triples does not change the bytes
    shuffled = tz.Triangulation(
        [("a", "2", "1"), ("b", "3", "2"), ("3", "1", "a"),
         ("2", "1", "b"), ("2", "3", "a"), ("1", "3", "b")])
    assert tz.serialize(shuffled) == one


@pytest.mark.parametrize("build", [
    lambda: tz.torus_grid(7, 8),
    tz.projective_plane_fig5,
    lambda: tz.example_sum("m6", 1, 1),
], ids=["torus_7_8", "projective_plane", "m6_1_1"])
def test_parse_of_a_shuffled_document_keeps_incidence_order(build):
    tri = build()
    rng = random.Random(3)
    faces = [list(face) for face in tri.faces]
    rng.shuffle(faces)
    for face in faces:
        rng.shuffle(face)
    vertices = list(tri.vertices)
    rng.shuffle(vertices)
    parsed = tz.parse(json.dumps(
        {"format": "tri-json/1", "vertices": vertices, "faces": faces}))
    assert parsed.faces == tri.faces
    assert parsed.edges == tri.edges
    assert parsed.vertices == tri.vertices
    # Equal dicts of tuples: each edge's two faces in the same order.
    assert parsed.edge_faces == tri.edge_faces


def test_document_shape():
    doc = json.loads(tz.serialize(tz.bipyramid(3)))
    assert doc["format"] == "tri-json/1"
    assert len(doc["faces"]) == 6
    assert doc["faces"] == sorted(doc["faces"])
    assert all(face == sorted(face) for face in doc["faces"])
    assert doc["vertices"] == ["1", "2", "3", "a", "b"]


def test_metadata_is_kept_in_document_but_not_needed():
    text = tz.serialize(tz.bipyramid(4), metadata={"name": "bp4", "n": 4})
    doc = json.loads(text)
    assert doc["metadata"] == {"name": "bp4", "n": 4}
    assert tz.parse(text) == tz.bipyramid(4)


def _dumped(doc):
    """The reference layout of both writers: the standard encoder, indented."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _document(tri, metadata=None):
    doc = {"format": FORMAT, "vertices": list(tri.vertices),
           "faces": [list(face) for face in tri.faces]}
    if metadata:
        doc["metadata"] = metadata
    return doc


def _certificate(certificate):
    return {"format": CERTIFICATE_FORMAT,
            "final_zigzag_length": certificate.final_zigzag_length,
            "steps": [{"face": list(step.face), "bad_type": step.bad_type,
                       "patch": step.patch_id, "map": dict(step.vertex_map),
                       "relabeling": dict(step.relabeling)}
                      for step in certificate.steps]}


# Labels that the encoder escapes: a quote, a backslash, control
# characters, non-ASCII text and DEL.
_ODD_LABELS = ['say "hi"', "back\\slash", "tab\there\x01", "caf\u00e9 \u2603", "del\x7f"]
_NESTED = {"z": [1, {"b": None, "a": "\u2603\nline"}], "a": {"k": [True, 1.5, -2, []], "e": {}},
           "m": "\"quoted\" \\ \x1f"}


def _relabeled(tri, labels):
    names = dict(zip(tri.vertices, labels))
    return tz.Triangulation([[names[v] for v in face] for face in tri.faces])


def test_writers_match_the_indenting_encoder(full_corpus):
    # serialize and ShredCertificate.to_json join their text from pieces;
    # it must equal the standard encoder's, indented, byte for byte, on
    # every input, its shredding and its certificate.
    for tri in full_corpus:
        out, certificate = tz.shred(tri)
        for surface in (tri, out):
            assert tz.serialize(surface) == _dumped(_document(surface))
        assert certificate.to_json() == _dumped(_certificate(certificate))
    tri = full_corpus[0]
    for metadata in (None, {}, {"k": 1}, _NESTED, [1, [2, {"x": []}]], "text"):
        assert tz.serialize(tri, metadata) == _dumped(_document(tri, metadata))


@pytest.mark.parametrize("build", [lambda: tz.platonic("octahedron"),
                                   lambda: tz.torus_grid(3, 3)], ids=["octahedron", "torus_3_3"])
def test_writers_escape_labels_as_the_encoder_does(build):
    tri = build()
    # Two integer labels too, which become text.
    labels = [f"{label} {i}" for i, label in enumerate(_ODD_LABELS * 2)]
    odd = _relabeled(tri, labels[:len(tri.vertices) - 2] + [7, 12])
    assert any("\\u" in text for text in map(json.dumps, odd.vertices))
    text = tz.serialize(odd, _NESTED)
    assert text == _dumped(_document(odd, _NESTED))
    assert text.isascii() and tz.parse(text) == odd
    out, certificate = tz.shred(odd)
    assert certificate.steps
    assert tz.serialize(out) == _dumped(_document(out))
    assert certificate.to_json() == _dumped(_certificate(certificate))


def test_certificate_writer_on_hand_made_steps():
    face = tz.make_face(*_ODD_LABELS[:3])
    step = ShredStep(face, "M5", "sphere-m1",
                     (("z", _ODD_LABELS[3]), ("a", "b\"c")), (("\u00e9", "x"),))
    unsorted = ShredStep(face[::-1], "M7", "bp3-m3", (("b", "1"), ("a", "2")), ())
    for certificate in (ShredCertificate((), 0), ShredCertificate((step,), 42),
                        ShredCertificate((step, unsorted), 3)):
        text = certificate.to_json()
        assert text == _dumped(_certificate(certificate))
        assert text.isascii()
    assert ShredCertificate((), 0).to_json().endswith('"steps": []\n}\n')


def test_parse_accepts_integer_labels():
    text = json.dumps({"format": "tri-json/1",
                       "faces": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]})
    assert tz.parse(text) == tz.platonic("tetrahedron")


def test_parse_syntax_errors():
    with pytest.raises(MalformedDocument):
        tz.parse("not json at all {")
    with pytest.raises(MalformedDocument):
        tz.parse(json.dumps(["no", "object"]))
    with pytest.raises(MalformedDocument):
        tz.parse(json.dumps({"format": "tri-json/1"}))  # faces missing
    with pytest.raises(MalformedDocument):
        tz.parse(json.dumps({"faces": [["1", "2", "3"]]}))  # format missing
    with pytest.raises(MalformedDocument):
        tz.parse(json.dumps({"format": "tri-json/2", "faces": []}))
    with pytest.raises(MalformedDocument):
        tz.parse(json.dumps({"format": "tri-json/1", "faces": [["1", "2"]]}))
    with pytest.raises(MalformedDocument):
        tz.parse(json.dumps({"format": "tri-json/1", "faces": [["1", "2", 3.5]]}))


def test_parse_surfaces_validation_failures_with_location():
    text = json.dumps({"format": "tri-json/1",
                       "faces": [["1", "2", "3"], ["1", "2", "4"]]})
    with pytest.raises(ValidationFailure) as info:
        tz.parse(text)
    assert any(v.subject == (("1", "3"),) for v in info.value.report.violations)


def test_parse_checks_declared_vertices():
    good = json.dumps({"format": "tri-json/1",
                       "vertices": ["1", "2", "3", "4"],
                       "faces": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]})
    assert tz.parse(good) == tz.platonic("tetrahedron")
    bad = json.dumps({"format": "tri-json/1",
                      "vertices": ["1", "2", "3", "4", "5"],
                      "faces": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]})
    with pytest.raises(MalformedDocument):
        tz.parse(bad)
    for vertices in (["1", "2", "3", 4.5], ["1", "2", "3", None], "1234"):
        doc = json.loads(good)
        doc["vertices"] = vertices
        with pytest.raises(MalformedDocument, match="array of labels"):
            tz.parse(json.dumps(doc))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_documents_and_certificates_holding_a_non_json_constant_are_refused(constant):
    # The standard decoder takes these three words, which JSON has not.
    doc = json.loads(tz.serialize(tz.bipyramid(3), metadata={"x": 1.5}))
    with pytest.raises(MalformedDocument, match=f"{constant} is no JSON number"):
        tz.parse(json.dumps(doc).replace("1.5", constant))
    _, certificate = tz.shred(tz.bipyramid(6))
    doc = dict(json.loads(certificate.to_json()), note=1.5)
    with pytest.raises(MalformedDocument, match=f"{constant} is no JSON number"):
        ShredCertificate.from_json(json.dumps(doc).replace("1.5", constant))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_serialize_refuses_metadata_json_cannot_write(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        tz.serialize(tz.bipyramid(3), metadata={"run": {"x": value}})


def test_parse_document_returns_raw_faces():
    doc = parse_document(json.dumps(
        {"format": "tri-json/1", "faces": [["1", "2", "3"], ["1", "2", "3"]]}))
    assert len(doc["faces"]) == 2  # duplicates preserved for validation


def test_a_parsed_surface_keeps_one_object_per_label():
    tri = tz.parse(tz.serialize(tz.torus_grid(5, 6)))
    assert len({id(v) for face in tri.faces for v in face}) == len(tri.vertices)
    # Fresh strings: a label built anew for every occurrence.
    tri = tz.Triangulation([tuple(f"v{v}" for v in face) for face in tz.bipyramid(9).faces])
    assert len({id(v) for face in tri.faces for v in face}) == len(tri.vertices)
    assert ({id(v) for edge in tri.edge_faces for v in edge}
            == {id(v) for v in tri.vertices})


def analysed_torus_bytes_per_face():
    """Parse, zigzag atlas, monodromies, types and one public step() of a
    1 860-face torus: the bytes still allocated per face once garbage is
    collected, and the analysed triangulation."""
    text = tz.serialize(tz.torus_grid(30, 31))
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tri = tz.parse(text)
        tz.is_z_knotted(tri)
        tz.all_zigzags(tri).count
        tz.face_types(tri)
        face = tri.faces[0]
        tz.step(tri, tz.Position(tz.omega(face)[0], face))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return held / len(tri.faces), tri


def test_an_analysed_document_holds_few_bytes_per_face():
    # The corner table and an atlas with no step table keep this near 220;
    # an edge-to-faces dict kept alive with them would add about 230 more.
    per_face, tri = analysed_torus_bytes_per_face()
    assert per_face < 350
    assert "edge_faces" not in tri._cache
