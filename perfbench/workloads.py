"""The benchmark's three workloads: inputs, timed pipelines and output summaries.

Every workload runs its surfaces through the public API in passes.  A pass
returns its stage timings and, for the untimed checks, what each surface
produced.  Library calls go through their modules (``document.parse``, not
``parse``) so the traced run can wrap them.

analyze-torus  torus_grid(100, 101): 20 200 faces, all M5, only read.  The
               document, core, zigzag and monodromy layers do all the work;
               classify always exits early on M5.
shred-sphere   random_sphere(3, 120): 1 204 mixed faces, so classify runs its
               witness search.  ``trizig shred`` runs in-process, then the
               certificate is replayed from the re-parsed files.  Shredding
               recomputes face_types over the whole surface after every
               repair, and the replay is dominated by connected sums.
small-corpus   about 400 small surfaces, each analysed, shredded, serialized
               and replayed, so fixed per-call costs dominate.  Includes the
               non-orientable projective-plane sums.

The seed shuffles the order of the faces, and of the vertices in each face,
in every input document.  The surfaces, and so every output, are the same
at every seed: on this shared machine run-to-run drift already uses most of
the bounds, and a seed-dependent corpus would add its own spread.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import time
import typing

from trizig import (cli, core, document, generators, monodromy, shredding,
                    surgery, zigzag)

DEFAULT_SEED = 0
BAD_TAGS = shredding.BAD_TAGS
TAGS = ("M1", "M2", "M3", "M4", "M5", "M6", "M7")

clock = time.perf_counter


@dataclasses.dataclass
class Surface:
    """One surface's input and everything a pass produced from it."""

    name: str
    text: str
    tri: typing.Any = None
    zigzags: int = 0
    types: dict = dataclasses.field(default_factory=dict)
    output: typing.Optional[str] = None
    certificate: typing.Optional[str] = None
    steps: int = 0
    verified: bool = False


@dataclasses.dataclass
class Pass:
    seconds: float
    stages: typing.Dict[str, float]
    surface_s: typing.List[float]
    surfaces: typing.List[Surface]


def shuffled_document(tri, rng):
    """A tri-json document of ``tri`` with faces and their vertices in seeded order."""
    faces = [list(face) for face in tri.faces]
    rng.shuffle(faces)
    for face in faces:
        rng.shuffle(face)
    return json.dumps({"format": document.FORMAT,
                       "vertices": list(tri.vertices),
                       "faces": faces}) + "\n"


def warm_patches():
    """Build and verify the cached repair patches before anything is timed."""
    for bad_type in ("M5", "M7"):
        shredding.patch_for(bad_type)


def analyze(surface):
    """parse -> is_z_knotted -> all_zigzags -> z_monodromy -> face_types.

    The lone z_monodromy call builds the per-face maps, so the traced run can
    tell map building from classification.
    """
    tri = document.parse(surface.text)
    zigzag.is_z_knotted(tri)
    surface.zigzags = zigzag.all_zigzags(tri).count
    monodromy.z_monodromy(tri, tri.faces[0])
    surface.types = monodromy.face_types(tri)
    surface.tri = tri


class AnalyzeTorus:
    name = "analyze-torus"

    def setup(self, seed, workdir):
        tri = generators.torus_grid(100, 101)
        return [Surface("torus_grid(100, 101)",
                        shuffled_document(tri, random.Random(seed)))]

    def run_pass(self, inputs, workdir):
        surface = dataclasses.replace(inputs[0])
        start = clock()
        analyze(surface)
        seconds = clock() - start
        return Pass(seconds, {"analyze_s": seconds}, [seconds], [surface])


class ShredSphere:
    name = "shred-sphere"
    files = ("in.json", "out.json", "cert.json")

    def setup(self, seed, workdir):
        tri = generators.random_sphere(3, 120)
        text = shuffled_document(tri, random.Random(seed))
        with open(workdir / self.files[0], "w", encoding="utf-8") as handle:
            handle.write(text)
        warm_patches()
        return [Surface("random_sphere(3, 120)", text)]

    def run_pass(self, inputs, workdir):
        surface = dataclasses.replace(inputs[0])
        paths = [str(workdir / name) for name in self.files]
        source, target, cert = paths
        start = clock()
        analyze(surface)
        analyzed = clock()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["shred", source, "-o", target, "--certificate", cert])
        shredded = clock()
        texts = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                texts.append(handle.read())
        surface.verified = shredding.verify_certificate(
            document.parse(texts[0]),
            shredding.ShredCertificate.from_json(texts[2]),
            document.parse(texts[1])).ok
        end = clock()
        if code != 0:
            raise RuntimeError(f"trizig shred exited {code}")
        surface.output, surface.certificate = texts[1], texts[2]
        surface.steps = len(json.loads(texts[2])["steps"])
        if printed.getvalue().split()[0] != f"steps={surface.steps}":
            raise RuntimeError(f"unexpected shred report {printed.getvalue()!r}")
        stages = {"analyze_s": analyzed - start, "shred_s": shredded - analyzed,
                  "verify_s": end - shredded}
        return Pass(end - start, stages, [end - start], [surface])


def projective_sum(rng):
    """The projective plane summed with 0-2 random bipyramids (chi = 1)."""
    tri = generators.projective_plane_fig5()
    for _ in range(rng.randint(0, 2)):
        face = tri.faces[rng.randrange(len(tri.faces))]
        patch = generators.bipyramid(rng.randint(3, 9))
        patch_face = patch.faces[rng.randrange(len(patch.faces))]
        gluing = surgery.enumerate_special_maps(face, patch_face)[rng.randrange(6)]
        tri = surgery.connected_sum(tri, face, patch, patch_face,
                                    gluing).triangulation
    return tri


class SmallCorpus:
    name = "small-corpus"

    def setup(self, seed, workdir):
        named = [(f"bp{n}", generators.bipyramid(n)) for n in range(3, 17)]
        named += [(which, generators.platonic(which))
                  for which in ("tetrahedron", "octahedron", "icosahedron")]
        named += [(f"torus_grid({p}, {q})", generators.torus_grid(p, q))
                  for p, q in ((3, 3), (3, 4), (4, 5))]
        named += [("projective_plane", generators.projective_plane_fig5())]
        named += [(f"{variant}_{k}_{k2}", generators.example_sum(variant, k, k2))
                  for variant, k, k2 in (("m1", 3, 3), ("m2", 1, 1),
                                         ("m2", 1, 3), ("m6", 1, 1))]
        sums = random.Random(0)
        named += [(f"projective_sum({i})", projective_sum(sums)) for i in range(76)]
        named += [(f"random_sphere({s}, {s % 4})", generators.random_sphere(s, s % 4))
                  for s in range(300)]
        warm_patches()
        order = random.Random(seed)
        return [Surface(name, shuffled_document(tri, order)) for name, tri in named]

    def run_pass(self, inputs, workdir):
        surfaces = [dataclasses.replace(surface) for surface in inputs]
        analyze_s = 0.0
        surface_s = []
        start = clock()
        for surface in surfaces:
            begin = clock()
            analyze(surface)
            analyze_s += clock() - begin
            output, certificate = shredding.shred(surface.tri)
            surface.output = document.serialize(output)
            surface.certificate = certificate.to_json()
            surface.steps = len(certificate.steps)
            surface.verified = shredding.verify_certificate(
                document.parse(surface.text),
                shredding.ShredCertificate.from_json(surface.certificate),
                document.parse(surface.output)).ok
            surface_s.append(clock() - begin)
        seconds = clock() - start
        return Pass(seconds, {"analyze_s": analyze_s, "corpus_s": seconds},
                    surface_s, surfaces)


WORKLOADS = {workload.name: workload
             for workload in (AnalyzeTorus(), ShredSphere(), SmallCorpus())}


def type_table(surface):
    """The face -> type table, one ``face<TAB>tag<TAB>witness`` line per face."""
    lines = []
    for face, mtype in sorted(surface.types.items()):
        witness = ("-" if mtype.witness is None
                   else ",".join(map(repr, mtype.witness)))
        lines.append(f"{','.join(face)}\t{mtype.tag}\t{witness}\n")
    return "".join(lines)


def digests(surfaces):
    """sha256 of the type tables, output documents and certificates of a pass."""
    parts = {"face_types": [type_table(s) for s in surfaces]}
    if surfaces[0].output is not None:
        parts["outputs"] = [s.output for s in surfaces]
        parts["certificates"] = [s.certificate for s in surfaces]
    return {key: hashlib.sha256(
                "".join(f"{len(t)}:{t}" for t in texts).encode()).hexdigest()
            for key, texts in parts.items()}


def descriptors(surfaces):
    """Sizes, topology, zigzag counts and the type histogram of the inputs."""
    chi = {}
    histogram = dict.fromkeys(TAGS, 0)
    for surface in surfaces:
        key = str(core.euler_characteristic(surface.tri))
        chi[key] = chi.get(key, 0) + 1
        for mtype in surface.types.values():
            histogram[mtype.tag] += 1
    return {
        "surfaces": len(surfaces),
        "V": sum(len(s.tri.vertices) for s in surfaces),
        "E": sum(len(s.tri.edges) for s in surfaces),
        "F": sum(len(s.tri.faces) for s in surfaces),
        "chi": dict(sorted(chi.items())),
        "orientable": sum(core.is_orientable(s.tri) for s in surfaces),
        "zigzags": sum(s.zigzags for s in surfaces),
        "types": histogram,
    }
