import pytest

import trizig as tz

KNOTTED_TAGS = ("M1", "M2", "M3", "M4")


def _bad_faces(tri):
    """The reference list of bad faces: those classifying M5/M6/M7, with
    their types, in canonical face order."""
    types = tz.face_types(tri)
    return [(face, types[face].tag)
            for face in tri.faces if types[face].tag not in KNOTTED_TAGS]


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
