"""``validate`` against a naive reference validator on mutated surfaces."""

import collections
import itertools
import random
import re

import trizig as tz
from trizig import core
from trizig.core import (DISCONNECTED, DUPLICATE_FACE, EDGE_DEGREE,
                         NON_MANIFOLD_VERTEX, NON_TRIANGLE)


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def _reference(face_list):
    """The violations ``validate`` should report, found the slow way: a
    Counter for edge degrees and union-find for links and components."""
    found = []
    seen = {}
    for i, entry in enumerate(tuple(item) for item in face_list):
        labels = tuple(str(x) for x in entry)
        face = tuple(sorted(labels))
        if len(set(face)) != 3:
            found.append((NON_TRIANGLE, (i, entry), f"face #{i} repeats a vertex: {labels}"))
        elif face in seen:
            found.append((DUPLICATE_FACE, (seen[face], i, face),
                          f"face {face} appears more than once (E2)"))
        else:
            seen[face] = i
    faces = sorted(seen)
    if not faces:
        return found + [(NON_TRIANGLE, (), "empty face list")]
    degree = collections.Counter(
        edge for face in faces for edge in itertools.combinations(face, 2))
    found += [(EDGE_DEGREE, (edge,),
               f"edge {edge} lies in {degree[edge]} face(s), expected 2 (E1)")
              for edge in sorted(degree) if degree[edge] != 2]
    at_edge = collections.defaultdict(list)
    for face in faces:
        for edge in itertools.combinations(face, 2):
            at_edge[edge].append(face)

    if not found:
        corners = _UnionFind()
        for edge, (first, second) in at_edge.items():
            for v in edge:
                corners.union((v, first), (v, second))
        roots = collections.defaultdict(set)
        for face in faces:
            for v in face:
                roots[v].add(corners.find((v, face)))
        found += [(NON_MANIFOLD_VERTEX, (v,),
                   f"link of vertex {v!r} is not a single cycle (pinched surface)")
                  for v in sorted(roots) if len(roots[v]) > 1]

    face_sets = _UnionFind()
    vertex_sets = _UnionFind()
    for edge, incident in at_edge.items():
        vertex_sets.union(*edge)
        for face in incident:
            face_sets.union(face, incident[0])
    lost_faces = [f for f in faces if face_sets.find(f) != face_sets.find(faces[0])]
    if lost_faces:
        vertices = sorted({v for face in faces for v in face})
        lost = [v for v in vertices if vertex_sets.find(v) != vertex_sets.find(vertices[0])]
        if lost:
            found.append((DISCONNECTED, tuple(lost),
                          f"vertex graph is disconnected; unreachable vertices {lost}"))
        found.append((DISCONNECTED, tuple(lost_faces),
                      f"face adjacency graph is disconnected; "
                      f"{len(lost_faces)} unreachable face(s)"))
    return found


def _mutations(tri, rng):
    """Seeded broken (and a few still valid) face lists made from ``tri``."""
    faces = [list(face) for face in tri.faces]
    vertices = list(tri.vertices)

    def copy(shared, prefix="c."):
        label = {**{v: prefix + v for v in vertices}, **shared}
        return [[label[v] for v in face] for face in faces]

    dropped = rng.randrange(len(faces))
    picked = rng.choice(faces)
    u, w = rng.sample(vertices, 2)
    a, b = rng.choice(tri.edges)
    yield faces[:dropped] + faces[dropped + 1:]
    yield faces + [rng.sample(picked, 3)]
    yield faces + [rng.sample(vertices, 3)]
    yield [[u if v == w else v for v in face] for face in faces]
    yield faces + copy({})
    yield faces + copy({u: u})
    yield faces + copy({a: a, b: b})
    yield faces + [[a, b, "c.new"]]  # an edge in three faces
    # A pinched vertex away from the least face: two copies, labeled to
    # sort after every input label, that share one vertex.
    yield faces + copy({}, "~a.") + copy({u: "~a." + u}, "~b.")


def _shuffled(face_list, rng):
    face_list = [list(face) for face in face_list]
    rng.shuffle(face_list)
    for face in face_list:
        rng.shuffle(face)
    return face_list


def test_validate_matches_a_naive_reference(full_corpus, monkeypatch):
    reach_calls = []
    reach = core._reach
    monkeypatch.setattr(core, "_reach", lambda *args: reach_calls.append(args) or reach(*args))
    rng = random.Random(20171)
    rules = collections.Counter()
    degrees, pinched = set(), set()
    for tri in full_corpus:
        for face_list in _mutations(tri, rng):
            face_list = _shuffled(face_list, rng)
            reach_calls.clear()
            expected = _reference(face_list)
            report = tz.validate(face_list)
            assert list(report.violations) == expected
            if report.ok:
                assert not reach_calls
            rules.update((rule, type(subject[0]).__name__) for rule, subject, _ in expected
                         if subject)
            degrees.update(re.search(r"lies in (\d+)", v.message).group(1)
                           for v in report.violations if v.rule == EDGE_DEGREE)
            pinched.update(v.subject[0][:1] for v in report.violations
                           if v.rule == NON_MANIFOLD_VERTEX)
    # Every rule came up, and Disconnected both for vertices and for faces.
    assert {rule for rule, _kind in rules} == {
        NON_TRIANGLE, DUPLICATE_FACE, EDGE_DEGREE, NON_MANIFOLD_VERTEX, DISCONNECTED}
    assert (DISCONNECTED, "str") in rules and (DISCONNECTED, "tuple") in rules
    # Edges in one, three and four faces, and a vertex pinched in a component
    # other than the least face's.
    assert {"1", "3", "4"} <= degrees and "~" in pinched


def test_valid_input_takes_one_walk(full_corpus, monkeypatch):
    def refuse(*args):
        raise AssertionError("_reach ran on a valid face list")
    monkeypatch.setattr(core, "_reach", refuse)
    rng = random.Random(5)
    for tri in full_corpus:
        face_list = _shuffled(tri.faces, rng)
        assert tz.validate(face_list).ok
        assert tz.Triangulation(face_list) == tri
