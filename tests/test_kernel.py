"""The integer zigzag kernel and shape table against step-by-step references.

Every reference here walks the public ``step()``, which reads the
triangulation's edge-to-faces map, and never touches the cached int tables.
The surfaces cover tori, projective planes with random bipyramids summed on,
random spheres and two z-knotted shredding outputs, so non-sphere surfaces
are checked too.
"""

import random

import pytest

import trizig as tz
from trizig.core import Dart
from trizig.monodromy import _SHAPES, DartPermutation, MonodromyType
from trizig.zigzag import Position, Zigzag


def _sum_with_bipyramids(tri, rng):
    """``tri`` with 0-2 random bipyramids summed onto random faces."""
    for _ in range(rng.randint(0, 2)):
        face = tri.faces[rng.randrange(len(tri.faces))]
        patch = tz.bipyramid(rng.randint(3, 9))
        patch_face = patch.faces[rng.randrange(len(patch.faces))]
        gluing = tz.enumerate_special_maps(face, patch_face)[rng.randrange(6)]
        tri = tz.connected_sum(tri, face, patch, patch_face, gluing).triangulation
    return tri


def _surfaces():
    surfaces = [(f"torus_grid({p}, {q})", lambda p=p, q=q: tz.torus_grid(p, q))
                for p, q in ((3, 3), (3, 4), (3, 5), (4, 6), (5, 7), (6, 9))]
    surfaces += [(f"projective_sum({seed})",
                  lambda seed=seed: _sum_with_bipyramids(
                      tz.projective_plane_fig5(), random.Random(seed)))
                 for seed in range(8)]
    surfaces += [(f"torus_sum({seed})",
                  lambda seed=seed: _sum_with_bipyramids(
                      tz.torus_grid(3, 4), random.Random(seed)))
                 for seed in range(3)]
    surfaces += [(f"random_sphere({seed}, {seed % 5})",
                  lambda seed=seed: tz.random_sphere(seed, seed % 5))
                 for seed in range(10)]
    # Z-knotted: one orbit pair visits every face several times, so each
    # monodromy image wraps around the orbit's end.
    surfaces += [("shred(bipyramid(8))", lambda: tz.shred(tz.bipyramid(8))[0]),
                 ("shred(torus_grid(3, 4))", lambda: tz.shred(tz.torus_grid(3, 4))[0])]
    return surfaces


SURFACES = pytest.mark.parametrize(
    "build", [build for _name, build in _surfaces()],
    ids=[name for name, _build in _surfaces()])


def _positions_in_order(tri):
    """All 4E positions sorted by (tail, head, face)."""
    return sorted(Position(dart, face)
                  for (u, v), faces in tri.edge_faces.items()
                  for dart in (Dart(u, v), Dart(v, u))
                  for face in faces)


def _walked_zigzags(tri):
    """The directed zigzags in order of their least position, by step()."""
    seen = set()
    zigzags = []
    for start in _positions_in_order(tri):
        if start in seen:
            continue
        darts = []
        position = start
        while position not in seen:
            seen.add(position)
            darts.append(position.dart)
            position = tz.step(tri, position)
        assert position == start
        zigzags.append(Zigzag(darts))
    return zigzags


def _walked_monodromy(tri, face):
    """From each seed, step until the next dart on an edge of the face."""
    edges = set(tz.face_edges(face))
    mapping = {}
    for dart in tz.omega(face):
        position = tz.step(tri, Position(dart, face))
        while position.dart.edge not in edges:
            position = tz.step(tri, position)
        mapping[dart] = position.dart
    return DartPermutation(face, mapping)


def _three_cycle_pair(e1, e2, e3):
    return {-e1: e2, e2: e3, e3: -e1, -e3: -e2, -e2: e1, e1: -e3}


def _crossed_transpositions(e1, e2, e3):
    return {e1: -e2, -e2: e1, e2: -e1, -e1: e2, e3: e3, -e3: -e3}


def _straight_transpositions(e1, e2, e3):
    return {e1: e2, e2: e1, -e1: -e2, -e2: -e1, e3: e3, -e3: -e3}


def _searched_type(monodromy):
    """Pattern search over witness cycles, trying M1, M2, M5, M3, M6, M4, M7."""
    face = monodromy.face
    rotation = DartPermutation.rotation(face)
    inverse = rotation.compose(rotation)  # D^3 = 1
    if monodromy.is_identity:
        return MonodromyType("M1")
    if monodromy == rotation:
        return MonodromyType("M2")
    if monodromy == inverse:
        return MonodromyType("M5")
    searches = (("M3", rotation.cycles(), _three_cycle_pair),
                ("M6", inverse.cycles(), _three_cycle_pair),
                ("M4", rotation.cycles(), _crossed_transpositions),
                ("M7", rotation.cycles(), _straight_transpositions))
    for tag, cycles, pattern in searches:
        for a, b, c in cycles:
            for witness in ((a, b, c), (b, c, a), (c, a, b)):
                if DartPermutation(face, pattern(*witness)) == monodromy:
                    return MonodromyType(tag, witness)
    raise AssertionError(f"no shape matches {monodromy!r}")


@SURFACES
def test_orbits_match_a_step_walk(build):
    tri = build()
    walked = _walked_zigzags(tri)
    atlas = tz.all_zigzags(tri)
    assert atlas.count == len(walked)
    assert list(atlas.zigzags) == walked


@SURFACES
def test_monodromy_matches_a_step_walk(build):
    tri = build()
    for face in tri.faces:
        assert tz.z_monodromy(tri, face) == _walked_monodromy(tri, face)


@SURFACES
def test_face_types_match_the_pattern_search(build):
    tri = build()
    types = tz.face_types(tri)
    assert list(types) == list(tri.faces)
    for face, mtype in types.items():
        monodromy = tz.z_monodromy(tri, face)
        assert mtype == _searched_type(monodromy)
        assert tz.classify(monodromy) == mtype


def test_shape_table_has_the_fifteen_valid_monodromies():
    assert len(_SHAPES) == 15
    tags = [tag for tag, _witness in _SHAPES.values()]
    assert {tag: tags.count(tag) for tag in set(tags)} == {
        "M1": 1, "M2": 1, "M5": 1, "M3": 3, "M4": 3, "M6": 3, "M7": 3}


def test_expand_agrees_for_either_witness():
    # Each witnessed shape is reached from two rotation cycles (of D^-1 for
    # M6, of D otherwise); _SHAPES keeps the first, both must expand alike.
    face = ("1", "2", "a")
    darts = tz.omega(face)
    rotation = DartPermutation.rotation(face)
    for image, (tag, stored) in _SHAPES.items():
        if tag in ("M1", "M2", "M5"):
            continue
        expected = DartPermutation(face, {darts[k]: darts[i] for k, i in enumerate(image)})
        source = rotation.compose(rotation) if tag == "M6" else rotation
        witnesses = [witness for a, b, c in source.cycles()
                     for witness in ((a, b, c), (b, c, a), (c, a, b))
                     if MonodromyType(tag, witness).expand(face) == expected]
        assert len(witnesses) == 2
        assert tuple(darts[k] for k in stored) in witnesses
        for witness in witnesses:
            assert tz.classify(MonodromyType(tag, witness).expand(face)).tag == tag


def test_expand_rejects_a_witness_that_is_no_rotation_cycle():
    face = ("1", "2", "a")
    e, other = tz.omega(face)[:2]
    for tag in ("M3", "M4", "M6", "M7"):
        with pytest.raises(ValueError):
            MonodromyType(tag, (e, e, other)).expand(face)


def test_surfaces_include_non_spheres():
    chis = {tz.euler_characteristic(build()) for _name, build in _surfaces()}
    assert chis == {0, 1, 2}

