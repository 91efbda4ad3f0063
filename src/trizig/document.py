"""The tri-json/1 interchange format.

A triangulation document is a JSON object with a format tag, the face list
as arrays of three vertex labels, and optionally the vertex list and free
metadata.  Serialization is canonical, so equal triangulations serialize
byte-identically and parse(serialize(t)) round-trips: faces and triples are
sorted, and the text is exactly ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline.  That is: keys sorted; each array item and object member on
a line of its own, indented two spaces per level; items separated by ","
and keys by ": "; an empty array written ``[]``; and in strings ``"``,
``\\`` and every character outside printable ASCII escaped (``\\n``,
``\\u00e9``, ...).  The writers join that text from pieces, each label
encoded once by the function ``json.dumps`` uses for strings, instead of
running the pure-Python encoder that an indent selects.  NaN, Infinity and
-Infinity are not JSON: the reader refuses them and the writer writes none.
"""

import json
import typing

from .core import Triangulation
from .errors import MalformedDocument

FORMAT = "tri-json/1"
_LABELS = {str, int}

# A str as ``json.dumps`` writes it by default: quoted, ASCII-only.
_quote = json.encoder.encode_basestring_ascii


def _block(brackets: str, items: typing.Sequence[str], depth: int) -> str:
    """A JSON array or object, ``brackets`` "[]" or "{}", of encoded
    ``items`` at nesting ``depth``, laid out as ``json.dumps(indent=2)``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + "  " * depth + brackets[1])


def serialize(tri: Triangulation,
              metadata: typing.Optional[dict] = None) -> str:
    """Canonical document text for a triangulation.  Metadata holding a NaN
    or infinite float, which JSON cannot write, raises ValueError."""
    labels = list(map(_quote, tri.vertices))
    quoted = dict(zip(tri.vertices, labels))
    # Each face is a ``_block`` at depth 2, written out inline.
    faces = [f"[\n      {quoted[a]},\n      {quoted[b]},\n      {quoted[c]}\n    ]"
             for a, b, c in tri.faces]
    members = [f'"faces": {_block("[]", faces, 1)}', f'"format": {_quote(FORMAT)}']
    if metadata:
        text = json.dumps(metadata, indent=2, sort_keys=True, allow_nan=False)
        members.append('"metadata": ' + text.replace("\n", "\n  "))
    members.append(f'"vertices": {_block("[]", labels, 1)}')
    return _block("{}", members, 0) + "\n"


def _refuse_constant(name: str):
    raise MalformedDocument(f"not valid JSON: {name} is no JSON number")


# The standard decoder but for the constants it takes beyond JSON: NaN,
# Infinity and -Infinity are refused.  Made once, as a document is parsed
# per call.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def load_json(text: str):
    """Decode JSON text; invalid or too deeply nested text, and the
    non-JSON constants NaN, Infinity and -Infinity, are MalformedDocument."""
    try:
        return _DECODER.decode(text)
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
