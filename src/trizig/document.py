"""The tri-json/1 interchange format.

A triangulation document is a JSON object with a format tag, the face list
as arrays of three vertex labels, and optionally the vertex list and free
metadata.  Serialization is canonical: faces and triples sorted, keys
sorted, fixed indentation, so equal triangulations serialize byte-identically
and parse(serialize(t)) round-trips.
"""

import json
import typing

from .core import Triangulation
from .errors import MalformedDocument

FORMAT = "tri-json/1"
_LABELS = {str, int}


def serialize(tri: Triangulation,
              metadata: typing.Optional[dict] = None) -> str:
    """Canonical document text for a triangulation."""
    doc: typing.Dict[str, object] = {
        "format": FORMAT,
        "vertices": list(tri.vertices),
        "faces": [list(face) for face in tri.faces],
    }
    if metadata:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(text: str):
    """Decode JSON text; invalid or too deeply nested text is MalformedDocument."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from None


def parse_document(text: str) -> dict:
    """Decode and shape-check document text without building the triangulation."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise MalformedDocument("document must be a JSON object")
    tag = doc.get("format")
    if tag != FORMAT:
        raise MalformedDocument(f"missing or unsupported format tag: {tag!r}")
    faces = doc.get("faces")
    if not isinstance(faces, list):
        raise MalformedDocument('document has no "faces" array')
    # The decoder makes exact types, so exact classes are compared; a bool
    # is no int here.
    for i, face in enumerate(faces):
        if face.__class__ is not list or len(face) != 3:
            raise MalformedDocument(f"faces[{i}] is not an array of 3 labels")
        a, b, c = face
        if a.__class__ not in _LABELS or b.__class__ not in _LABELS \
                or c.__class__ not in _LABELS:
            bad = next(x for x in face if x.__class__ not in _LABELS)
            raise MalformedDocument(f"faces[{i}] contains a non-label entry {bad!r}")
    vertices = doc.get("vertices")
    if vertices is not None and (
            vertices.__class__ is not list
            or any(v.__class__ not in _LABELS for v in vertices)):
        raise MalformedDocument('"vertices" must be an array of labels')
    return doc


def parse(text: str) -> Triangulation:
    """Build a triangulation from document text.

    Raises MalformedDocument for structural problems with the text and
    ValidationFailure (with the offending edges/faces) when the face list is
    not a valid triangulation.
    """
    doc = parse_document(text)
    tri = Triangulation(doc["faces"])
    declared = doc.get("vertices")
    if declared is not None and sorted(map(str, declared)) != list(tri.vertices):
        raise MalformedDocument("declared vertex list does not match the face list")
    return tri
