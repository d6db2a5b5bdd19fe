"""dsx: finite semisimplicial sets, geometric and smash products,
simple-homotopy certificates, Moore constructions, and exact chain-level
verification backed by integral Smith normal forms."""

from .delta import (DeltaSet, DeltaMorphism, SubDeltaSet, EMPTY,
                    standard, validate, is_valid, skeleton,
                    pushout, disjoint_union, cycle_graph,
                    from_simplicial_complex, identity_morphism,
                    inclusion_morphism)
from .based import based_quotient, finite_model
from .products import (geometric_product, n_ary_product, unit_iso,
                       unit_iso_inverse, symmetry_iso, assoc_iso_nary,
                       assoc_iso_nary_right, product_morphism,
                       pushout_product_mono_check, smash, n_ary_smash,
                       smash_morphism, smash_morphism_left, smash_unit_iso,
                       charts, cell_name, cell_data)
from .moves import (Move, ExpansionCertificate, BudgetExhausted,
                    is_elementary_expansion, expansion_via_horn_pushout,
                    find_collapse_sequence, cone, mapping_cylinder,
                    cylinder_inclusions)
from .exact import smith
from .homology import (ChainComplex, HomologyGroup, Reduction, chain_complex,
                       reduction_of, homology,
                       homology_of, homology_table, is_acyclic,
                       homology_with_generators, induced_map,
                       integral_map_is_iso, is_homology_iso, is_quasi_iso,
                       bockstein,
                       fp_matrix_is_iso, certify_moore, chain_map_matrices,
                       mapping_cone_complex, complex_from_matrices)
from .dgred import (GradedMap, ExteriorModule, ModnReduction,
                    OrderTower, point_complex,
                    zero_map, identity_map, scalar_map, differential_map,
                    hom_differential, is_chain_map, shift, cone_dg,
                    cylinder_dg, reduce_mod_n, uv_identities,
                    extend_over_mod_n, cone_exterior, order_tower)
from .moore import (interval, circle, sphere2, s_bracket, psi, nabla,
                    psi_quotient_square, based_cone, hat_circle,
                    hat_circle_homotopy, hat_circle_expansion_certificate,
                    circle_segments, moore_space, symmetric_power_of,
                    PowerSystem, MooreSystem, CoherenceReport)

__version__ = "0.1.0"
