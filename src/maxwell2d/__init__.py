"""2D Maxwell cavity eigenvalue solver with continuous Lagrange elements.

Standard Galerkin, augmented, and orthogonal-subgrid-scale formulations on
uniform, criss-cross and Powell-Sabin triangulations of three benchmark
domains (square, flipped L-shape, cracked square).
"""

from .meshgen import (CRACKED_SQUARE, L_SHAPE, SQUARE_PI, DomainKind, Mesh,
                      MeshError, boundary_axes, build_criss_cross,
                      build_uniform, classify_boundary, dump_mesh,
                      powell_sabin_refine)
from .fem import (AssemblyError, DofMap, build_dofmap, make_quadrature,
                  reference_basis, scalar_kernels)
from .system import (ConstraintError, ConstraintSet, CornerStrategy,
                     EvpSystem, StabilizationParams, TipStrategy,
                     assemble_form, build_ag, build_constraints, build_osgs,
                     build_sg, reduce_system)
from .eig import (EigenSolveError, SolverConfig, Spectrum, filter_zeros,
                  solve_generalized)
from .study import (CRACK_REFERENCE, L_SHAPE_REFERENCE, EigenField, EigenTable,
                    StudyConfig, build_mesh, compute_eigenfunction,
                    convergence_rate, emit_table, export_eigenfunction,
                    parse_csv_table, reference_values, run_case, run_study,
                    square_reference)
from .cli import cli_main

__version__ = "0.1.0"
