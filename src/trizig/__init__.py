"""Zigzags, z-monodromy, and z-knotted shreddings of surface triangulations."""

from . import errors
from .core import (Dart, Edge, Face, Triangulation, ValidationReport, Vertex,
                   Violation, euler_characteristic, face_edges, face_rotation,
                   face_rotation_inverse, is_orientable, make_face, omega,
                   validate)
from .document import parse, serialize
from .generators import (bipyramid, example_sum, platonic,
                         projective_plane_fig5, random_sphere, torus_grid)
from .monodromy import (DartPermutation, MonodromyType, classify, face_types,
                        is_two_disjoint_3cycles, z_monodromy)
from .shredding import (Patch, ShredCertificate, ShredStep, VerificationResult,
                        find_gluing_map, patch_for, shred, shred_step,
                        verify_certificate)
from .surgery import (ALL, EXISTS, NONE, SpecialMap, SumResult, connected_sum,
                      enumerate_special_maps, fresh_label_prefix,
                      gluing_condition, refine_identity_face, th4_decide)
from .zigzag import (Position, Zigzag, ZigzagAtlas, all_zigzags, gauss_code,
                     is_essential, is_locally_z_knotted, is_z_knotted,
                     reverse_position, step, trace, zigzags_of_face)

__version__ = "0.1.0"
