"""Command-line interface.

Predicate commands (``knotted``) exit 0 for yes and 1 for no; every command
exits 2 on invalid input, with a machine-readable JSON error on stderr.
Reports are plain text by default; ``zigzags`` takes ``--json`` for machine
use.  A command whose reader closes standard output early
(``trizig zigzags F | head -1``) drops the rest of its output and exits 1,
with nothing on stderr.
"""

import argparse
import json
import os
import sys

from .core import euler_characteristic, make_face, validate
from .document import parse, parse_document, serialize
from .errors import FaceNotFound, MalformedDocument, TrizigError
from .generators import (bipyramid, example_sum, platonic,
                         projective_plane_fig5, random_sphere, torus_grid)
from .monodromy import face_types
from .shredding import shred
from .surgery import SpecialMap, connected_sum
from .zigzag import all_zigzags, gauss_code, is_z_knotted


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from None


def _write_outputs(*outputs) -> None:
    """Write each (text, path) pair, to stdout where the path is None.

    Every file is opened before any is written, without truncating it, so
    when one path cannot be written no file is created or changed.
    """
    opened = []
    try:
        for _text, path in outputs:
            if path is not None:
                existed = os.path.exists(path)
                opened.append((open(path, "a", encoding="utf-8"), existed))
    except OSError as exc:
        for handle, existed in opened:
            handle.close()
            if not existed:
                os.remove(handle.name)
        raise MalformedDocument(f"cannot write {path}: {exc}") from None
    handles = iter(opened)
    for text, path in outputs:
        if path is None:
            sys.stdout.write(text)
            continue
        with next(handles)[0] as handle:
            handle.truncate(0)
            handle.write(text)


def _parse_face(text: str):
    parts = text.split(",")
    if len(parts) != 3 or len(set(parts)) != 3:
        raise MalformedDocument(
            f"--face wants three distinct comma-separated labels, got {text!r}")
    return make_face(*parts)


_GENERATORS = {
    "bp": (1, lambda n: (bipyramid(n), {"family": "bipyramid", "n": n})),
    "tetrahedron": (0, lambda: (platonic("tetrahedron"), {"family": "tetrahedron"})),
    "octahedron": (0, lambda: (platonic("octahedron"), {"family": "octahedron"})),
    "icosahedron": (0, lambda: (platonic("icosahedron"), {"family": "icosahedron"})),
    "torus": (2, lambda p, q: (torus_grid(p, q), {"family": "torus-grid", "p": p, "q": q})),
    "projective-plane": (0, lambda: (projective_plane_fig5(),
                                     {"family": "projective-plane"})),
    "m1": (2, lambda k, k2: (example_sum("m1", k, k2),
                             {"family": "m1-sum", "k": k, "k2": k2})),
    "m2": (2, lambda k, k2: (example_sum("m2", k, k2),
                             {"family": "m2-sum", "k": k, "k2": k2})),
    "m6": (2, lambda k, k2: (example_sum("m6", k, k2),
                             {"family": "m6-sum", "k": k, "k2": k2})),
    "random": (2, lambda seed, steps: (random_sphere(seed, steps),
                                       {"family": "random-sphere",
                                        "seed": seed, "steps": steps})),
}


def _cmd_gen(args) -> int:
    if args.family not in _GENERATORS:
        raise MalformedDocument(
            f"unknown family {args.family!r}; choose from {sorted(_GENERATORS)}")
    arity, builder = _GENERATORS[args.family]
    if len(args.params) != arity:
        raise MalformedDocument(
            f"family {args.family} wants {arity} integer parameter(s), "
            f"got {len(args.params)}")
    try:
        params = [int(x) for x in args.params]
    except ValueError:
        raise MalformedDocument(
            f"parameters must be integers, got {args.params}") from None
    tri, metadata = builder(*params)
    _write_outputs((serialize(tri, metadata=metadata), args.output))
    return 0


def _cmd_validate(args) -> int:
    doc = parse_document(_read(args.file))
    report = validate(doc["faces"])
    print(report)
    return 0 if report.ok else 1


def _cmd_euler(args) -> int:
    print(euler_characteristic(parse(_read(args.file))))
    return 0


def _cmd_zigzags(args) -> int:
    tri = parse(_read(args.file))
    atlas = all_zigzags(tri)
    if args.json:
        doc = {
            "count": atlas.count,
            "pair_count": atlas.pair_count,
            "zigzags": [
                {
                    "length": z.length,
                    "vertices": list(z.vertices),
                    "darts": [[d.tail, d.head] for d in z.darts],
                }
                for z in atlas.zigzags
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"{atlas.count} zigzags ({atlas.pair_count} pairs)")
        for z in atlas.zigzags:
            print(f"length={z.length}  vertices={','.join(z.vertices)}")
    return 0


def _cmd_knotted(args) -> int:
    return 0 if is_z_knotted(parse(_read(args.file))) else 1


def _cmd_monodromy(args) -> int:
    tri = parse(_read(args.file))
    types = face_types(tri)
    if args.face is not None:
        face = _parse_face(args.face)
        if face not in types:
            raise FaceNotFound(f"face {face!r} not in triangulation")
        types = {face: types[face]}
    for face, mtype in sorted(types.items()):
        print(f"{','.join(face)}\t{mtype.tag}")
    return 0


def _cmd_consum(args) -> int:
    if len(args.face) != 2:
        raise MalformedDocument("consum wants --face twice: first file's face, "
                                "then second file's face")
    first = parse(_read(args.first))
    second = parse(_read(args.second))
    face1 = _parse_face(args.face[0])
    face2 = _parse_face(args.face[1])
    pairs = []
    for pair in args.map.split(","):
        src, sep, dst = pair.partition(":")
        if not sep:
            raise MalformedDocument(f"--map entries look like X:U, got {pair!r}")
        pairs.append((src, dst))
    gluing = SpecialMap(face1, face2, tuple(pairs))
    result = connected_sum(first, face1, second, face2, gluing)
    _write_outputs((serialize(result.triangulation), args.output))
    return 0


def _cmd_shred(args) -> int:
    tri = parse(_read(args.file))
    result, certificate = shred(tri)
    outputs = [(serialize(result), args.output)]
    if args.certificate is not None:
        outputs.append((certificate.to_json(), args.certificate))
    _write_outputs(*outputs)
    if args.output is not None:
        print(f"steps={len(certificate.steps)} "
              f"zigzag_length={certificate.final_zigzag_length}")
    return 0


def _cmd_gauss(args) -> int:
    print(" ".join(gauss_code(parse(_read(args.file)))))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trizig",
        description="Zigzags, z-monodromy and z-knotted shreddings of "
                    "surface triangulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named triangulation family")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="report validation violations")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("euler", help="print the Euler characteristic")
    p.add_argument("file")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("zigzags", help="list every directed zigzag")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_zigzags)

    p = sub.add_parser("knotted", help="exit 0 iff z-knotted")
    p.add_argument("file")
    p.set_defaults(func=_cmd_knotted)

    p = sub.add_parser("monodromy", help="per-face z-monodromy type table")
    p.add_argument("file")
    p.add_argument("--face")
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("consum", help="connected sum of two triangulations")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--face", action="append", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_consum)

    p = sub.add_parser("shred", help="construct a z-knotted shredding")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--certificate")
    p.set_defaults(func=_cmd_shred)

    p = sub.add_parser("gauss", help="Gauss code of a z-knotted triangulation")
    p.add_argument("file")
    p.set_defaults(func=_cmd_gauss)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except TrizigError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone; the output still buffered goes nowhere, so
        # the interpreter's last flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
