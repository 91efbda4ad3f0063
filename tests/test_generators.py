"""Named triangulation families and the random sphere generator."""

import pytest

import trizig as tz
from conftest import reference_random_sphere, reference_torus_faces
from trizig import generators, surgery
from trizig.errors import ParameterOutOfRange


def test_bipyramid_counts():
    bp3 = tz.bipyramid(3)
    assert len(bp3.vertices) == 5
    assert len(bp3.edges) == 9
    assert len(bp3.faces) == 6
    bp7 = tz.bipyramid(7)
    assert len(bp7.vertices) == 9
    assert len(bp7.faces) == 14
    assert tz.euler_characteristic(bp7) == 2


def test_bipyramid_rejects_small_n():
    for n in (2, 1, 0, -3):
        with pytest.raises(ParameterOutOfRange):
            tz.bipyramid(n)


def test_bipyramid_knotted_iff_odd():
    for n in range(3, 17):
        assert tz.is_z_knotted(tz.bipyramid(n)) == (n % 2 == 1)


def test_platonic_counts_and_types():
    tetra = tz.platonic("tetrahedron")
    assert (len(tetra.vertices), len(tetra.edges), len(tetra.faces)) == (4, 6, 4)
    octa = tz.platonic("octahedron")
    assert (len(octa.vertices), len(octa.edges), len(octa.faces)) == (6, 12, 8)
    ico = tz.platonic("icosahedron")
    assert (len(ico.vertices), len(ico.edges), len(ico.faces)) == (12, 30, 20)
    for tri in (tetra, octa, ico):
        assert tz.euler_characteristic(tri) == 2
        assert tz.is_orientable(tri)
        assert all(z.is_simple for z in tz.all_zigzags(tri))
        assert {t.tag for t in tz.face_types(tri).values()} == {"M5"}
    with pytest.raises(ParameterOutOfRange):
        tz.platonic("cube")


def test_tetrahedron_zigzags():
    atlas = tz.all_zigzags(tz.platonic("tetrahedron"))
    assert atlas.pair_count == 3
    assert all(z.length == 4 for z in atlas)


def test_icosahedron_zigzags():
    atlas = tz.all_zigzags(tz.platonic("icosahedron"))
    assert atlas.count == 12
    assert all(z.length == 10 and z.is_simple for z in atlas)


def test_torus_grid():
    tri = tz.torus_grid(3, 3)
    assert len(tri.vertices) == 9
    assert len(tri.faces) == 18
    assert tz.euler_characteristic(tri) == 0
    assert tz.is_orientable(tri)
    assert {t.tag for t in tz.face_types(tri).values()} == {"M5"}
    for p, q in ((3, 4), (4, 4), (4, 5), (5, 5), (3, 5)):
        grid = tz.torus_grid(p, q)
        assert tz.euler_characteristic(grid) == 0
        assert tz.is_orientable(grid)
        assert {t.tag for t in tz.face_types(grid).values()} == {"M5"}
    with pytest.raises(ParameterOutOfRange):
        tz.torus_grid(2, 5)
    with pytest.raises(ParameterOutOfRange):
        tz.torus_grid(4, 2)


def test_torus_grid_zigzag_simplicity_by_shape():
    # Square grids have only short closing lines, all simple.  For generic
    # p != q one diagonal zigzag pair has length 2*lcm(p, q) > p*q vertices,
    # so it cannot be simple; every face is M5 regardless.
    for p, q in ((3, 3), (4, 4), (5, 5), (3, 6)):
        assert all(z.is_simple for z in tz.all_zigzags(tz.torus_grid(p, q)))
    for p, q in ((3, 4), (3, 5), (4, 5)):
        atlas = tz.all_zigzags(tz.torus_grid(p, q))
        long_ones = [z for z in atlas if not z.is_simple]
        assert len(long_ones) == 2
        assert all(z.length > p * q for z in long_ones)


def test_projective_plane():
    tri = tz.projective_plane_fig5()
    assert tri.vertices == ("a", "b", "c", "d", "e", "f")
    assert len(tri.edges) == 15
    assert len(tri.faces) == 10
    assert tz.euler_characteristic(tri) == 1
    assert not tz.is_orientable(tri)
    assert all(z.is_simple for z in tz.all_zigzags(tri))
    assert {t.tag for t in tz.face_types(tri).values()} == {"M5"}


def test_example_sum_goldens():
    m1 = tz.example_sum("m1", 3, 3)
    assert tz.is_z_knotted(m1)
    assert tz.face_types(m1)[("2", "3", "a")].tag == "M1"

    m2 = tz.example_sum("m2", 1, 1)
    assert tz.is_z_knotted(m2)
    assert tz.face_types(m2)[("1", "2", "b")].tag == "M2"

    m6 = tz.example_sum("m6", 1, 1)
    assert not tz.is_z_knotted(m6)
    assert tz.face_types(m6)[("1", "2", "b")].tag == "M6"


def test_example_sum_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        tz.example_sum("m1", 1, 3)  # k must exceed 1
    with pytest.raises(ParameterOutOfRange):
        tz.example_sum("m1", 2, 3)  # k must be odd
    with pytest.raises(ParameterOutOfRange):
        tz.example_sum("m2", 2, 1)
    with pytest.raises(ParameterOutOfRange):
        tz.example_sum("m6", 1, 0)
    with pytest.raises(ParameterOutOfRange):
        tz.example_sum("m9", 1, 1)


def test_example_sum_larger_parameters():
    assert tz.is_z_knotted(tz.example_sum("m2", 1, 3))
    assert tz.is_z_knotted(tz.example_sum("m1", 3, 5))
    assert not tz.is_z_knotted(tz.example_sum("m6", 3, 1))


def test_random_sphere_is_deterministic():
    for seed in (0, 1, 7, 42):
        first = tz.random_sphere(seed, 4)
        second = tz.random_sphere(seed, 4)
        assert tz.serialize(first) == tz.serialize(second)
    assert tz.random_sphere(0, 3) != tz.random_sphere(1, 3)


def test_random_sphere_zero_steps_is_a_bipyramid():
    tri = tz.random_sphere(1, 0)
    n = len(tri.vertices) - 2
    assert 3 <= n <= 9
    assert len(tri.faces) == 2 * n
    assert tz.euler_characteristic(tri) == 2


def test_random_sphere_always_valid_spheres(random_corpus):
    for tri in random_corpus:
        assert tz.validate(tri).ok
        assert tz.euler_characteristic(tri) == 2
        assert tz.is_orientable(tri)


def test_random_sphere_rejects_negative_steps():
    with pytest.raises(ParameterOutOfRange):
        tz.random_sphere(3, -1)


@pytest.mark.parametrize("steps", [0, 1, 3, 17, 120])
def test_random_sphere_matches_the_reference_draw_loop(steps):
    for seed in range(40):
        assert tz.serialize(tz.random_sphere(seed, steps)) == tz.serialize(
            reference_random_sphere(seed, steps)), seed


def test_a_larger_random_sphere_matches_the_reference_draw_loop():
    assert tz.serialize(tz.random_sphere(11, 400)) == tz.serialize(
        reference_random_sphere(11, 400))


def test_random_sphere_builds_each_bipyramid_size_once_and_one_map_per_draw(monkeypatch):
    counts = {"bipyramid": 0, "SpecialMap": 0}

    def counting(name, build):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(generators, "bipyramid", counting("bipyramid", tz.bipyramid))
    counting_map = counting("SpecialMap", surgery.SpecialMap)
    monkeypatch.setattr(generators, "SpecialMap", counting_map)
    monkeypatch.setattr(surgery, "SpecialMap", counting_map)
    generators.random_sphere(3, 120)
    assert counts["bipyramid"] <= 7
    assert counts["SpecialMap"] == 120


@pytest.mark.parametrize("p, q", [(3, 3), (3, 4), (7, 11), (20, 21)])
def test_torus_grid_faces_match_the_reference_loop(monkeypatch, p, q):
    built = []

    def recording(faces):
        built.append(list(faces))
        return tz.Triangulation(faces)

    monkeypatch.setattr(generators, "Triangulation", recording)
    tri = generators.torus_grid(p, q)
    expected = reference_torus_faces(p, q)
    assert built == [expected]
    assert tz.serialize(tri) == tz.serialize(tz.Triangulation(expected))
