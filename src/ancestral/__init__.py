"""Ancestral matrices of rooted trees.

Construction of the leaf-indexed ancestral matrix, its exact characteristic
polynomial and numeric spectrum, the path-incidence factorization, bound and
theorem checkers, caterpillar closed forms, and exhaustive extremality
searches over small tree classes.

Every result, the tree included, is an immutable ``typing.NamedTuple``
record, so it is also a tuple: it compares equal to a tuple of the same
values, and ``len()`` and iteration see its fields.
"""

from .ancestral_matrices import (
    AncestralMatrix,
    PathIncidenceMatrix,
    ancestral_matrix,
    block_reconstruction,
    gram_check,
    gram_product,
    matrix_text,
    path_incidence_matrix,
)
from .bounds_theorems import (
    BoundReport,
    bound_report,
    delta_equality_holds,
    is_complete_dary,
    q_recursion_check,
    q_value,
    terminal_wiener,
    total_ancestral_depth,
)
from .caterpillar_analysis import (
    TrigRoot,
    asymptotic_rho,
    caterpillar_charpoly,
    chebyshev_closed_form,
    chebyshev_form_check,
    chebyshev_t,
    chebyshev_u,
    trig_spectral_radius,
)
from .enumeration import (
    ExtremalReport,
    TreeClass,
    by_leaf_count,
    by_outdegree_sequence,
    by_vertex_count,
    by_vertices_and_leaves,
    canonical_encoding,
    class_size,
    dary_by_leaves,
    encoding_to_tree,
    enumerate_class,
    random_tree,
    series_reduced,
    verify_claim,
    verify_extremal,
)
from .errors import AncestralError
from .exact_charpoly import (
    IntPolynomial,
    char_poly,
    charpoly_by_faddeev_leverrier,
    dary_determinant_check,
    eval_det_shift,
    gamma_coefficients,
)
from .newick_io import parse_newick, parse_newick_with_labels, serialize_newick
from .path_collections import (
    CollectionCount,
    count_by_edge_states,
    count_collections,
    upward_paths,
)
from .spectral import (
    EigenOneCertificate,
    Spectrum,
    eigen_decompose,
    eigenvalue_one_certificate,
    eigenvalues,
    rho,
    spectral_radius,
)
from .tree_core import (
    RootedTree,
    ancestral_level,
    binary_caterpillar,
    broom,
    build_tree,
    complete_dary,
    generate,
    greedy_caterpillar,
    leaf_counts,
    path_broom,
    row_sums,
    star,
    star_plus_path,
    structural_stats,
    subtree,
)
from .tree_ops import (
    OpKind,
    OpSpec,
    apply_op,
    branch_shift,
    leaf_swap,
    star_shift,
    valid_specs,
    witness_leaves,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
