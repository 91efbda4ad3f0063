"""Naive reference for zigzag orbit counts.

Walks the public ``step()`` one position at a time over all 4E (dart, face)
positions, without the cached orbit tables the library's fast paths use.
"""

from trizig.core import Dart
from trizig.zigzag import Position, step


def naive_orbit_count(tri):
    """Number of directed zigzags of ``tri``, found by walking ``step()``."""
    seen = set()
    orbits = 0
    for (u, v), faces in tri.edge_faces.items():
        for dart in (Dart(u, v), Dart(v, u)):
            for face in faces:
                start = Position(dart, face)
                if start in seen:
                    continue
                orbits += 1
                position = start
                while position not in seen:
                    seen.add(position)
                    position = step(tri, position)
                if position != start:
                    raise AssertionError("step() is not a permutation")
    return orbits
