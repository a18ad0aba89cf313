"""Cech-de Rham differential cochains on tori with holonomy and fiber
integration, Chern-Simons form calculus, and the lattice / modular-form
machinery for the rank-16 even unimodular lattices."""

from .trigform import TrigForm
from .covers import (Cover, DualCellDecomposition, Subordination,
                     make_circle_cover, make_circle_decomposition,
                     make_torus_cover, make_torus_hex_decomposition,
                     product_cover, refine, two_subordinations)
from .cochain import (DiffCochain, classify_flat_2cocycle, from_global_form,
                      homotopy_k, is_cocycle, restrict, total_d)
from .holonomy import (holonomy, invariance_defect,
                       nearest_2pi_multiple_defect)
from .fiberint import (homotopy_residual, pushforward,
                       pushforward_commutes_defect, pushforward_homotopy)
from .liecs import (GaugeFactor, GaugeMap, LieValuedForm, cs_form, curvature,
                    gauge_transform, gauge_variation_defect, graded_bracket,
                    pairing, su2_basis)
from .lattice import (IntegralLattice, anomaly_exponents, builtin,
                      class_sizes_mod_2, coxeter_from_roots,
                      enumerate_by_norm, roots, spin16_embedding,
                      spin16_first_series, theta_counts,
                      weight_identity_check)
from .modform import (AutomorphyFamily, GroupElement, ModuliPoint, act,
                      character, cocycle_defect, det_section, eta,
                      eta_multiplier, factor, measure_extra_multiplier,
                      reflection_element, theta1, theta_lattice,
                      theta_lattice_enum, transform_defect)

__version__ = "0.1.0"
