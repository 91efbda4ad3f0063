import bisect
import random

import pytest

import trizig as tz
from trizig.core import _Surface

KNOTTED_TAGS = ("M1", "M2", "M3", "M4")


def _bad_faces(tri):
    """The reference list of bad faces: those classifying M5/M6/M7, with
    their types, in canonical face order."""
    types = tz.face_types(tri)
    return [(face, types[face].tag)
            for face in tri.faces if types[face].tag not in KNOTTED_TAGS]


def reference_random_sphere(seed, steps):
    """The reference draw loop of ``random_sphere``: a fresh bipyramid per
    step, all six special maps built to keep one, and a plain list kept
    sorted, which each draw indexes."""
    rng = random.Random(seed)
    start = tz.bipyramid(rng.randint(3, 9))
    surface = _Surface(start)
    faces = list(start.faces)
    for _ in range(steps):
        face = faces[rng.randrange(len(faces))]
        patch = tz.bipyramid(rng.randint(3, 9))
        patch_face = patch.faces[rng.randrange(len(patch.faces))]
        gluing = tz.enumerate_special_maps(face, patch_face)[rng.randrange(6)]
        added, _fresh = surface.glue(face, patch, patch_face, gluing)
        del faces[bisect.bisect_left(faces, face)]
        for new in added:
            bisect.insort(faces, new)
    return surface.freeze()


def reference_torus_faces(p, q):
    """The reference face list of ``torus_grid(p, q)``, each label formatted
    per cell corner."""
    def label(i, j):
        return f"{i % p}.{j % q}"
    faces = []
    for i in range(p):
        for j in range(q):
            v00, v10 = label(i, j), label(i + 1, j)
            v01, v11 = label(i, j + 1), label(i + 1, j + 1)
            faces.append((v00, v10, v11))
            faces.append((v00, v01, v11))
    return faces


def _named_builders():
    builders = {}
    for n in range(3, 17):
        builders[f"bp{n}"] = lambda n=n: tz.bipyramid(n)
    for which in ("tetrahedron", "octahedron", "icosahedron"):
        builders[which] = lambda which=which: tz.platonic(which)
    builders["torus_3_3"] = lambda: tz.torus_grid(3, 3)
    builders["torus_3_4"] = lambda: tz.torus_grid(3, 4)
    builders["torus_4_5"] = lambda: tz.torus_grid(4, 5)
    builders["projective_plane"] = tz.projective_plane_fig5
    builders["m1_3_3"] = lambda: tz.example_sum("m1", 3, 3)
    builders["m2_1_1"] = lambda: tz.example_sum("m2", 1, 1)
    builders["m2_1_3"] = lambda: tz.example_sum("m2", 1, 3)
    builders["m6_1_1"] = lambda: tz.example_sum("m6", 1, 1)
    return builders


@pytest.fixture(scope="session")
def named_corpus():
    return {name: build() for name, build in _named_builders().items()}


@pytest.fixture(scope="session")
def random_corpus():
    # 200 seeded spheres with 0..5 surgery steps each.
    return [tz.random_sphere(seed, seed % 6) for seed in range(200)]


@pytest.fixture(scope="session")
def full_corpus(named_corpus, random_corpus):
    return list(named_corpus.values()) + random_corpus


@pytest.fixture(scope="session")
def knotted_corpus(full_corpus):
    return [tri for tri in full_corpus if tz.is_z_knotted(tri)]
