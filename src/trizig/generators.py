"""Builders for the named triangulation families.

Bipyramids over an n-gon, the three triangular Platonic solids, the
diagonal-split torus grid, a 10-face triangulation of the projective plane,
three bipyramid connected sums realizing the monodromy shapes M1/M2/M6, and
a seeded random sphere generator for fuzzing.

The bipyramid family walks through four monodromy shapes as n varies:
n = 2k+1 gives M3 for odd k and M4 for even k; n = 2k gives M5 for even k
and M7 for odd k > 1 (every face alike, by symmetry).
"""

import bisect
import random

from .core import Triangulation, _Surface, make_face
from .errors import ParameterOutOfRange
from .surgery import _TETRAHEDRON_FACES, SpecialMap, _special_map, connected_sum


def bipyramid(n: int) -> Triangulation:
    """The n-gonal bipyramid: rim 1..n joined to the two poles a and b.

    A sphere with 2n faces; the smallest case n = 3 is z-knotted.
    """
    if n < 3:
        raise ParameterOutOfRange(f"bipyramid needs n >= 3, got {n}")
    faces = []
    for i in range(1, n + 1):
        j = i % n + 1
        faces.append((str(i), str(j), "a"))
        faces.append((str(i), str(j), "b"))
    return Triangulation(faces)


_PLATONIC_FACES = {
    "tetrahedron": _TETRAHEDRON_FACES,
    "octahedron": (
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 2),
        (6, 2, 3), (6, 3, 4), (6, 4, 5), (6, 5, 2),
    ),
    # Icosahedron as a gyroelongated pentagonal bipyramid: apex 1, upper
    # pentagon 2..6, lower pentagon 7..11, apex 12.
    "icosahedron": tuple(
        [(1, 2 + i, 2 + (i + 1) % 5) for i in range(5)]
        + [(2 + i, 2 + (i + 1) % 5, 7 + i) for i in range(5)]
        + [(7 + i, 7 + (i + 1) % 5, 2 + (i + 1) % 5) for i in range(5)]
        + [(12, 7 + i, 7 + (i + 1) % 5) for i in range(5)]
    ),
}


def platonic(which: str) -> Triangulation:
    """One of the triangular Platonic solids.

    All their zigzags are simple, so every face has monodromy D^-1 (M5).
    """
    try:
        faces = _PLATONIC_FACES[which]
    except KeyError:
        raise ParameterOutOfRange(
            f"unknown solid {which!r}; choose from {sorted(_PLATONIC_FACES)}"
        ) from None
    return Triangulation(faces)


def torus_grid(p: int, q: int) -> Triangulation:
    """A p-by-q torus grid with every cell split by the same diagonal.

    Vertices are labelled "i.j"; each cell (i, j) is cut from its lower-left
    to its upper-right corner.  Every face has monodromy D^-1 (M5).  All
    zigzags are simple when the diagonal lines close early (square grids,
    or p dividing q); for generic p != q the diagonal zigzag has length
    2*lcm(p, q) > p*q and cannot be simple.

    Each label is formatted once, into a table that the cells index, so
    the faces share their label strings.
    """
    if p < 3 or q < 3:
        raise ParameterOutOfRange(f"torus grid needs p, q >= 3, got ({p}, {q})")
    # Row i + 1 and column j + 1 wrap through an extra row and column.
    labels = [[f"{i % p}.{j % q}" for j in range(q + 1)] for i in range(p + 1)]
    faces = []
    for i in range(p):
        row, above = labels[i], labels[i + 1]
        for j in range(q):
            v00, v10, v01, v11 = row[j], above[j], row[j + 1], above[j + 1]
            faces.append((v00, v10, v11))
            faces.append((v00, v01, v11))
    return Triangulation(faces)


_PROJECTIVE_PLANE_FACES = (
    ("a", "c", "d"), ("a", "b", "d"), ("c", "d", "f"), ("b", "d", "e"),
    ("d", "e", "f"), ("b", "c", "f"), ("b", "c", "e"), ("a", "b", "f"),
    ("a", "e", "f"), ("a", "c", "e"),
)


def projective_plane_fig5() -> Triangulation:
    """A 10-face triangulation of the real projective plane on K6.

    Six vertices, every pair joined: the antipodal quotient of the
    icosahedron.  Euler characteristic 1, non-orientable, all zigzags simple.
    """
    return Triangulation(_PROJECTIVE_PLANE_FACES)


_SUM_VERTEX_MAPS = {
    # source vertex of {a,1,2} -> target vertex of the second bipyramid
    "m1": (("a", "2"), ("1", "a"), ("2", "1")),
    "m2": (("a", "a"), ("1", "1"), ("2", "2")),
    "m6": (("a", "1"), ("1", "2"), ("2", "a")),
}


def example_sum(variant: str, k: int, k2: int) -> Triangulation:
    """Named connected sums of two bipyramids along their {a,1,2} faces.

    m1: BP_2k # BP_2k' (k, k' odd > 1) with a->2', 1->a', 2->1'; z-knotted
        with an identity-monodromy face at {a,2,3}.
    m2: BP_2k+1 # BP_2k'+1 (k, k' odd) with the straight map a->a', 1->1',
        2->2'; z-knotted with face {b,1,2} of shape M2.
    m6: same sizes as m2 but a->1', 1->2', 2->a'; not z-knotted, with face
        {b,1,2} of shape M6.
    """
    if variant not in _SUM_VERTEX_MAPS:
        raise ParameterOutOfRange(
            f"unknown sum variant {variant!r}; choose from m1, m2, m6")
    if variant == "m1":
        if k % 2 == 0 or k2 % 2 == 0 or k <= 1 or k2 <= 1:
            raise ParameterOutOfRange(
                f"m1 sum needs odd k, k' > 1, got ({k}, {k2})")
        n, n2 = 2 * k, 2 * k2
    else:
        if k % 2 == 0 or k2 % 2 == 0 or k < 1 or k2 < 1:
            raise ParameterOutOfRange(
                f"{variant} sum needs odd k, k' >= 1, got ({k}, {k2})")
        n, n2 = 2 * k + 1, 2 * k2 + 1
    first = bipyramid(n)
    second = bipyramid(n2)
    source = make_face("a", "1", "2")
    gluing = SpecialMap(source, source, _SUM_VERTEX_MAPS[variant])
    return connected_sum(first, source, second, source, gluing).triangulation


def random_sphere(seed: int, steps: int) -> Triangulation:
    """A reproducible random sphere: bipyramids glued at random faces.

    Starts from a random BP_n (3 <= n <= 9) and performs ``steps`` connected
    sums with further random bipyramids, choosing faces and special maps
    uniformly.  Deterministic in the seed; always a valid sphere.

    Each bipyramid size drawn is built once per call and shared by the
    steps that draw it, as gluing only reads a patch; each draw builds only
    the special map it picks, map k of ``enumerate_special_maps`` from the
    same permutation table.  Neither touches the random calls, their order
    or the sorted face list each draw indexes, so a seed gives the same
    sphere as a fresh bipyramid and all six maps per step would.
    """
    if steps < 0:
        raise ParameterOutOfRange(f"steps must be >= 0, got {steps}")
    rng = random.Random(seed)
    pieces = {}  # one bipyramid per size drawn

    def piece() -> Triangulation:
        n = rng.randint(3, 9)
        if n not in pieces:
            pieces[n] = bipyramid(n)
        return pieces[n]

    start = piece()
    surface = _Surface(start)
    faces = list(start.faces)  # in sorted order, which each draw indexes
    for _ in range(steps):
        face = faces[rng.randrange(len(faces))]
        patch = piece()
        patch_face = patch.faces[rng.randrange(len(patch.faces))]
        gluing = _special_map(face, patch_face, rng.randrange(6))
        added, _fresh = surface.glue(face, patch, patch_face, gluing)
        del faces[bisect.bisect_left(faces, face)]
        for new in added:
            bisect.insort(faces, new)
    return surface.freeze()
