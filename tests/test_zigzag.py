"""Zigzag engine: step orbits, atlases, knottedness, Gauss codes."""

import collections
import gc
import random
import types

import pytest
from hypothesis import given, strategies as st

import trizig as tz
from trizig.core import Dart
from trizig.errors import FaceNotFound, InvalidPosition, NotZKnotted
from trizig import zigzag
from trizig.zigzag import Position, Zigzag, _kernel, least_rotation

PAPER_BP3_CYCLE = ("a", "1", "2", "b", "3", "1", "a", "2", "3",
                   "b", "1", "2", "a", "3", "1", "b", "2", "3")


def _cyclic_equal(seq, other):
    seq, other = list(seq), list(other)
    if len(seq) != len(other):
        return False
    return any(other == seq[i:] + seq[:i] for i in range(len(seq)))


def test_step_on_tetrahedron():
    tetra = tz.platonic("tetrahedron")
    got = tz.step(tetra, Position(Dart("1", "2"), ("1", "2", "3")))
    assert got == Position(Dart("2", "4"), ("1", "2", "4"))


def test_step_closes_after_18_on_bp3():
    bp3 = tz.bipyramid(3)
    start = Position(Dart("1", "2"), ("1", "2", "a"))
    position = start
    for i in range(18):
        position = tz.step(bp3, position)
        if i < 17:
            assert position != start
    assert position == start


def test_step_is_a_bijection(named_corpus):
    for tri in (named_corpus["bp3"], named_corpus["tetrahedron"],
                named_corpus["projective_plane"]):
        positions = [Position(Dart(u, v), face)
                     for (u, v) in tri.edges
                     for face in tri.edge_faces[(u, v)]] \
                  + [Position(Dart(v, u), face)
                     for (u, v) in tri.edges
                     for face in tri.edge_faces[(u, v)]]
        assert len(positions) == 4 * len(tri.edges)
        images = {tz.step(tri, p) for p in positions}
        assert images == set(positions)


def test_step_rejects_invalid_positions():
    tetra = tz.platonic("tetrahedron")
    with pytest.raises(InvalidPosition):
        tz.step(tetra, Position(Dart("1", "2"), ("1", "3", "4")))
    with pytest.raises(InvalidPosition):
        tz.step(tetra, Position(Dart("1", "2"), ("1", "2", "9")))


def test_trace_rejects_invalid_positions():
    bp3 = tz.bipyramid(3)
    with pytest.raises(InvalidPosition):
        tz.trace(bp3, Position(Dart("1", "3"), ("1", "2", "a")))
    with pytest.raises(InvalidPosition):
        tz.trace(bp3, Position(Dart("1", "1"), ("1", "2", "a")))


def test_reverse_position_golden():
    face = ("t", "u", "v")
    assert tz.reverse_position(Position(Dart("u", "v"), face)) == \
        Position(Dart("u", "t"), face)


def test_reverse_position_is_an_involution():
    face = ("1", "2", "a")
    for dart in tz.omega(face):
        position = Position(dart, face)
        assert tz.reverse_position(tz.reverse_position(position)) == position


def test_reverse_after_step_is_an_involution_exhaustively():
    # Exhaustive on every position of the tetrahedron and BP_3.
    for tri in (tz.platonic("tetrahedron"), tz.bipyramid(3)):
        for (u, v) in tri.edges:
            for dart in (Dart(u, v), Dart(v, u)):
                for face in tri.edge_faces[(u, v)]:
                    position = Position(dart, face)
                    once = tz.reverse_position(tz.step(tri, position))
                    assert tz.reverse_position(tz.step(tri, once)) == position


def test_trace_of_reverse_position_is_the_reversed_zigzag(named_corpus):
    for name in ("bp5", "bp6", "projective_plane"):
        tri = named_corpus[name]
        for face in tri.faces[:3]:
            for dart in tz.omega(face):
                position = Position(dart, face)
                forward = tz.trace(tri, position)
                backward = tz.trace(tri, tz.reverse_position(position))
                assert backward == forward.reverse()


def test_trace_bp3_matches_the_worked_zigzag():
    bp3 = tz.bipyramid(3)
    zigzag = tz.trace(bp3, Position(Dart("1", "2"), ("1", "2", "a")))
    assert zigzag.length == 18
    assert _cyclic_equal(zigzag.vertices, PAPER_BP3_CYCLE) or \
        _cyclic_equal(tuple(reversed(zigzag.vertices)), PAPER_BP3_CYCLE)
    # same orbit -> same canonical zigzag
    assert tz.trace(bp3, tz.step(bp3, Position(Dart("1", "2"), ("1", "2", "a")))) == zigzag


def test_trace_tetrahedron_simple_quadrilateral():
    tetra = tz.platonic("tetrahedron")
    zigzag = tz.trace(tetra, Position(Dart("2", "4"), ("1", "2", "4")))
    assert zigzag.length == 4
    assert len(set(zigzag.vertices)) == 4


def test_atlas_tetrahedron():
    atlas = tz.all_zigzags(tz.platonic("tetrahedron"))
    assert atlas.count == 6
    assert atlas.pair_count == 3
    assert all(z.length == 4 and z.is_simple for z in atlas)


def test_atlas_bp3():
    atlas = tz.all_zigzags(tz.bipyramid(3))
    assert atlas.count == 2
    assert [z.length for z in atlas] == [18, 18]


def test_atlas_octahedron():
    # 8 directed zigzags of length 6; 8 * 6 = 48 = 4 * 12 positions.
    octa = tz.platonic("octahedron")
    atlas = tz.all_zigzags(octa)
    assert atlas.count == 8
    assert all(z.length == 6 for z in atlas)
    assert sum(z.length for z in atlas) == 4 * len(octa.edges)


def test_atlas_partitions_positions(full_corpus):
    for tri in full_corpus[:40]:
        atlas = tz.all_zigzags(tri)
        assert sum(z.length for z in atlas) == 4 * len(tri.edges)


def test_atlas_pairing_is_fixed_point_free_involution(full_corpus):
    for tri in full_corpus[:40]:
        atlas = tz.all_zigzags(tri)
        for zigzag in atlas:
            partner = atlas.pairing[zigzag]
            assert partner != zigzag
            assert partner == zigzag.reverse()
            assert atlas.pairing[partner] == zigzag
        assert len(atlas) == 2 * atlas.pair_count


def test_no_zigzag_equals_its_reverse(full_corpus):
    for tri in full_corpus[:60]:
        for zigzag in tz.all_zigzags(tri):
            assert zigzag.reverse() != zigzag


def test_counting_builds_no_zigzag(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a Zigzag was built")

    monkeypatch.setattr("trizig.zigzag.Zigzag", refuse)
    tri = tz.torus_grid(20, 21)
    atlas = tz.all_zigzags(tri)
    assert (atlas.count, atlas.pair_count, len(atlas)) == (84, 42, 84)
    assert not tz.is_z_knotted(tri)
    assert {mtype.tag for mtype in tz.face_types(tri).values()} == {"M5"}
    with pytest.raises(AssertionError, match="a Zigzag was built"):
        atlas.zigzags


def test_order_free_reads_never_sort_the_atlas(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the atlas was put in canonical order")

    monkeypatch.setattr("trizig.zigzag._in_canonical_order", refuse)
    tri = tz.torus_grid(4, 5)
    face = tri.faces[0]
    atlas = tz.all_zigzags(tri)
    assert atlas.count == 20
    assert not tz.is_z_knotted(tri)
    assert tz.classify(tz.z_monodromy(tri, face)).tag == "M5"
    assert {mtype.tag for mtype in tz.face_types(tri).values()} == {"M5"}
    assert len(tz.zigzags_of_face(tri, face)) == 6
    assert tz.trace(tri, Position(tz.omega(face)[0], face)).length == 8
    out, certificate = tz.shred(tri)
    assert tz.is_z_knotted(out) and certificate.final_zigzag_length == 2 * len(out.edges)
    with pytest.raises(AssertionError, match="canonical order"):
        atlas.zigzags


def _eager_zigzags(tri):
    """One ``Zigzag`` per kernel orbit, built directly from the int positions."""
    faces = tri.faces
    return [Zigzag(tz.omega(faces[p // 6])[p % 6] for p in orbit)
            for orbit in _kernel(tri).orbits]


def test_materialized_zigzags_match_the_kernel_orbits(full_corpus):
    for i, tri in enumerate(full_corpus):
        eager = _eager_zigzags(tri)
        kernel = _kernel(tri)
        orbit_of = kernel.orbit_of
        # The atlas lists the orbits by their least (tail, head, face) position.
        least = [min(Position(tz.omega(tri.faces[p // 6])[p % 6], tri.faces[p // 6])
                     for p in orbit) for orbit in kernel.orbits]
        in_order = [eager[o] for o in sorted(range(len(eager)), key=least.__getitem__)]
        atlas = tz.all_zigzags(tri)
        assert atlas.count == len(eager)
        assert list(atlas.zigzags) == in_order
        assert list(atlas) == in_order
        assert list(atlas.pairing) == in_order
        assert atlas.pairing == {zigzag: zigzag.reverse() for zigzag in eager}
        # Per-face reads build their own zigzags: check a spread of faces.
        for f in range(i % 7, len(tri.faces), 7):
            face = tri.faces[f]
            assert tz.zigzags_of_face(tri, face) == frozenset(
                eager[orbit_of[6 * f + k]] for k in range(6))
            k = f % 6
            assert tz.trace(tri, Position(tz.omega(face)[k], face)) == eager[
                orbit_of[6 * f + k]]


def test_atlas_holds_no_reference_to_its_triangulation():
    tri = tz.bipyramid(8)
    atlas = tz.all_zigzags(tri)
    atlas.pairing  # materialize everything the atlas can hold
    seen, stack = set(), [atlas]
    while stack:
        obj = stack.pop()
        assert obj is not tri
        if id(obj) in seen or not isinstance(
                obj, (tuple, list, dict, tz.ZigzagAtlas, Zigzag)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))


def test_is_z_knotted():
    assert tz.is_z_knotted(tz.bipyramid(3))
    assert not tz.is_z_knotted(tz.bipyramid(8))
    assert not tz.is_z_knotted(tz.platonic("tetrahedron"))


def test_is_z_knotted_refuses_a_pair_that_misses_an_edge(monkeypatch):
    # A stubbed kernel keeps the two orbits of bp3 minus every position on
    # one edge: still two orbits, but the edge-coverage recheck must fail.
    tri = tz.bipyramid(3)
    orbits = _kernel(tri).orbits
    edge = tri.edges[0]
    missed = [[p for p in orbit if zigzag._dart(tri.faces[p // 6], p % 6).edge != edge]
              for orbit in orbits]
    assert [len(orbit) for orbit in missed] == [len(orbit) - 2 for orbit in orbits]
    monkeypatch.setattr(zigzag, "_kernel", lambda _tri: types.SimpleNamespace(orbits=missed))
    with pytest.raises(AssertionError, match="every edge twice"):
        tz.is_z_knotted(tri)


def test_zigzags_of_face_counts():
    face = ("1", "2", "a")
    assert len(tz.zigzags_of_face(tz.bipyramid(8), face)) == 6
    assert len(tz.zigzags_of_face(tz.bipyramid(6), face)) == 4
    for f in tz.bipyramid(3).faces:
        assert len(tz.zigzags_of_face(tz.bipyramid(3), f)) == 2
    with pytest.raises(FaceNotFound):
        tz.zigzags_of_face(tz.bipyramid(3), ("1", "2", "9"))


def test_zigzags_of_face_matches_edge_membership(full_corpus):
    # A zigzag passes the face's seeds iff it carries an edge of the face.
    for tri in full_corpus[:20]:
        atlas = tz.all_zigzags(tri)
        for face in tri.faces:
            seeded = tz.zigzags_of_face(tri, face)
            face_edges = set(tz.face_edges(face))
            touching = {z for z in atlas
                        if face_edges & {d.edge for d in z.darts}}
            assert seeded == touching
            assert len(seeded) in (2, 4, 6)
            assert {z.reverse() for z in seeded} == seeded


def test_is_locally_z_knotted():
    face = ("1", "2", "a")
    assert tz.is_locally_z_knotted(tz.bipyramid(3), face)
    assert not tz.is_locally_z_knotted(tz.bipyramid(8), face)
    assert not tz.is_locally_z_knotted(tz.bipyramid(6), face)


def test_is_essential():
    tetra = tz.platonic("tetrahedron")
    assert all(tz.is_essential(tetra, face) for face in tetra.faces)
    bp3 = tz.bipyramid(3)
    assert all(tz.is_essential(bp3, face) for face in bp3.faces)
    octa = tz.platonic("octahedron")
    assert not all(tz.is_essential(octa, face) for face in octa.faces)


def test_is_essential_matches_atlas_route(full_corpus):
    for tri in full_corpus[:15]:
        atlas = tz.all_zigzags(tri)
        for face in tri.faces:
            edges = set(tz.face_edges(face))
            naive = all(edges & {d.edge for d in z.darts} for z in atlas)
            assert tz.is_essential(tri, face) == naive


def test_z_knotted_implies_essential_and_locally_knotted(knotted_corpus):
    for tri in knotted_corpus[:30]:
        for face in tri.faces:
            assert tz.is_essential(tri, face)
            assert tz.is_locally_z_knotted(tri, face)


def test_is_simple():
    assert all(z.is_simple for z in tz.all_zigzags(tz.platonic("tetrahedron")))
    assert all(z.is_simple for z in tz.all_zigzags(tz.platonic("icosahedron")))
    bp3_zigzag = next(iter(tz.all_zigzags(tz.bipyramid(3))))
    assert not bp3_zigzag.is_simple


def test_gauss_code_bp3():
    word = tz.gauss_code(tz.bipyramid(3))
    assert len(word) == 18
    assert len(set(word)) == 9
    assert all(sum(1 for w in word if w == symbol) == 2 for symbol in set(word))


def test_gauss_code_bp5_length():
    word = tz.gauss_code(tz.bipyramid(5))
    assert len(word) == 30
    assert len(set(word)) == 15


def test_gauss_code_requires_knotted():
    with pytest.raises(NotZKnotted):
        tz.gauss_code(tz.platonic("octahedron"))


def test_lemma1_equivalence(full_corpus):
    # single zigzag pair <=> some zigzag passes through every edge twice
    for tri in full_corpus[:80]:
        atlas = tz.all_zigzags(tri)
        single_pair = atlas.count == 2
        edge_counts = (collections.Counter(d.edge for d in z.darts) for z in atlas)
        full_double_cover = any(
            len(counts) == len(tri.edges) and set(counts.values()) == {2}
            for counts in edge_counts)
        assert single_pair == full_double_cover


def test_least_rotation_small_cases():
    assert least_rotation((2, 1, 3)) == (1, 3, 2)
    assert least_rotation("baa") == ("a", "a", "b")
    assert least_rotation((5,)) == (5,)
    assert least_rotation(()) == ()


def test_zigzags_start_at_their_least_dart(full_corpus):
    # least_rotation compares only the rotations at the least dart, which a
    # zigzag visits at most twice (each dart is read in the two faces of
    # its edge)
    for tri in full_corpus:
        for zigzag in tz.all_zigzags(tri):
            assert zigzag.darts[0] == min(zigzag.darts)
            assert max(collections.Counter(zigzag.darts).values()) <= 2


@given(st.lists(st.integers(0, 4), min_size=1, max_size=10))
def test_least_rotation_matches_bruteforce(values):
    rotations = [tuple(values[i:] + values[:i]) for i in range(len(values))]
    assert least_rotation(values) == min(rotations)


def test_zigzag_canonical_form_is_rotation_invariant():
    rng = random.Random(7)
    bp5 = tz.bipyramid(5)
    atlas = tz.all_zigzags(bp5)
    for zigzag in atlas:
        darts = list(zigzag.darts)
        k = rng.randrange(len(darts))
        assert tz.Zigzag(darts[k:] + darts[:k]) == zigzag
