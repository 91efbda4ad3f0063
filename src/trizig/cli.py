"""Command-line interface.

Predicate commands (``knotted``) exit 0 for yes and 1 for no; every command
exits 2 on invalid input, with a machine-readable JSON error on stderr.
Reports are plain text by default; ``zigzags`` takes ``--json`` for machine
use.  A command whose reader closes standard output early
(``trizig zigzags F | head -1``) drops the rest of its output and exits 1,
with nothing on stderr.
"""

import argparse
import functools
import json
import os
import sys

from .core import euler_characteristic, make_face
from .document import parse, serialize
from .errors import MalformedDocument, TrizigError, ValidationFailure
from .generators import (bipyramid, example_sum, platonic,
                         projective_plane_fig5, random_sphere, torus_grid)
from .monodromy import face_types
from .shredding import shred
from .surgery import SpecialMap, connected_sum
from .zigzag import _face_index, all_zigzags, gauss_code, is_z_knotted


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from None


def _write_outputs(*outputs) -> None:
    """Write each (text, path) pair, to stdout where the path is None.

    Every file is opened before any is written, without truncating it, so
    when one path cannot be opened no file is created or changed; when one
    opens but cannot be written (``/dev/full``), none after it is.
    """
    opened = []  # (handle, existed) of each file not yet written
    try:
        for _text, path in outputs:
            if path is not None:
                existed = os.path.exists(path)
                opened.append((open(path, "a", encoding="utf-8"), existed))
        for text, path in outputs:
            if path is None:
                sys.stdout.write(text)
                continue
            with opened.pop(0)[0] as handle:
                handle.truncate(0)
                handle.write(text)
    except OSError as exc:
        for handle, existed in opened:
            handle.close()
            if not existed:
                os.remove(handle.name)
        if path is None:  # standard output, which main reports
            raise
        raise MalformedDocument(f"cannot write {path}: {exc}") from None


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one file: by inode when both exist, else by real path."""
    if os.path.exists(first) and os.path.exists(second):
        return os.path.samefile(first, second)
    return os.path.realpath(first) == os.path.realpath(second)


def _parse_face(text: str):
    parts = text.split(",")
    if len(parts) != 3 or len(set(parts)) != 3:
        raise MalformedDocument(
            f"--face wants three distinct comma-separated labels, got {text!r}")
    return make_face(*parts)


# Each family's builder, the family name its documents record, and the
# names of its integer parameters, which its metadata records too.
_GENERATORS = {
    "bp": (bipyramid, "bipyramid", ("n",)),
    "tetrahedron": (functools.partial(platonic, "tetrahedron"), "tetrahedron", ()),
    "octahedron": (functools.partial(platonic, "octahedron"), "octahedron", ()),
    "icosahedron": (functools.partial(platonic, "icosahedron"), "icosahedron", ()),
    "torus": (torus_grid, "torus-grid", ("p", "q")),
    "projective-plane": (projective_plane_fig5, "projective-plane", ()),
    "m1": (functools.partial(example_sum, "m1"), "m1-sum", ("k", "k2")),
    "m2": (functools.partial(example_sum, "m2"), "m2-sum", ("k", "k2")),
    "m6": (functools.partial(example_sum, "m6"), "m6-sum", ("k", "k2")),
    "random": (random_sphere, "random-sphere", ("seed", "steps")),
}


def _cmd_gen(args) -> int:
    if args.family not in _GENERATORS:
        raise MalformedDocument(
            f"unknown family {args.family!r}; choose from {sorted(_GENERATORS)}")
    builder, family, names = _GENERATORS[args.family]
    if len(args.params) != len(names):
        raise MalformedDocument(
            f"family {args.family} wants {len(names)} integer parameter(s), "
            f"got {len(args.params)}")
    try:
        params = [int(x) for x in args.params]
    except ValueError:
        raise MalformedDocument(
            f"parameters must be integers, got {args.params}") from None
    metadata = {"family": family, **dict(zip(names, params))}
    _write_outputs((serialize(builder(*params), metadata=metadata), args.output))
    return 0


def _cmd_validate(args) -> int:
    try:
        parse(_read(args.file))
    except ValidationFailure as failure:
        print(failure.report)
        return 1
    print("ok")
    return 0


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
        face = tri.faces[_face_index(tri, _parse_face(args.face))]
        types = {face: types[face]}
    for face, mtype in types.items():
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
    if (args.output is not None and args.certificate is not None
            and _same_file(args.output, args.certificate)):
        raise MalformedDocument(
            f"-o and --certificate name the same file: {args.certificate}")
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
    reads = argparse.ArgumentParser(add_help=False)  # the one document most commands read
    reads.add_argument("file")

    def command(name, func, text, parents=(reads,)):
        p = sub.add_parser(name, parents=parents, help=text)
        p.set_defaults(func=func)
        return p

    p = command("gen", _cmd_gen, "generate a named triangulation family", ())
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output")
    command("validate", _cmd_validate, "report validation violations")
    command("euler", _cmd_euler, "print the Euler characteristic")
    p = command("zigzags", _cmd_zigzags, "list every directed zigzag")
    p.add_argument("--json", action="store_true")
    command("knotted", _cmd_knotted, "exit 0 iff z-knotted")
    p = command("monodromy", _cmd_monodromy, "per-face z-monodromy type table")
    p.add_argument("--face")
    p = command("consum", _cmd_consum, "connected sum of two triangulations", ())
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--face", action="append", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("-o", "--output")
    p = command("shred", _cmd_shred, "construct a z-knotted shredding")
    p.add_argument("-o", "--output")
    p.add_argument("--certificate")
    command("gauss", _cmd_gauss, "Gauss code of a z-knotted triangulation")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except TrizigError as exc:
        error = exc
    except OSError as exc:
        # Reads and file outputs report their own failures, so standard
        # output failed: its reader is gone, or it is full.  Its buffer goes
        # nowhere, so the interpreter's last flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 1
        error = MalformedDocument(f"cannot write standard output: {exc}")
    print(json.dumps({"error": {"type": type(error).__name__, "message": str(error)}},
                     sort_keys=True), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
