"""parkfact: exact enumeration for the tree / parking-function /
minimal-factorization triad.

Everything is computed in exact integer arithmetic.  The core objects
are labelled rooted trees on [n], parking functions of length n, minimal
transposition factorizations of full cycles, and their planar arch
diagrams; the statistics and bijections tying the families together are
exposed alongside exhaustive verification suites.
"""

from .arch import (
    ArchDiagram,
    arch_from_json,
    arch_to_factorization,
    arch_to_json,
    caps,
    decompose_simple,
    is_simple_arch,
    is_valid_arch,
    recompose,
    rotator,
    sigma_diagram,
)
from .factorizations import (
    Factorization,
    area_lower,
    area_upper,
    enumerate_factorizations,
    factorization_enumerator,
    is_minimal_for,
    is_simple,
    iter_factor_pairs,
    lower,
    parse_factorization,
    phi_k,
    phi_k_inverse,
    reflect_conjugate,
    reflect_reverse,
    restricted_enumerators,
    simple_index,
    total_difference,
    upper,
)
from .inverse_maps import (
    l_inverse,
    non_unimodal_witness,
    omega,
    push,
    sigma_sides,
    u_inverse,
)
from .parking import (
    LabelledDyckPath,
    MajorSequence,
    ParkingFunction,
    area,
    bounce,
    complement,
    copinv,
    enumerate_majors,
    enumerate_parking,
    from_path,
    is_major,
    is_parking,
    park_process,
    parking_enumerators,
    parse_major,
    parse_parking,
    pinv,
    theta,
    theta_inverse,
    to_path,
)
from .permutations import (
    FullCycle,
    Permutation,
    compose,
    format_permutation,
    full_cycles,
    is_unimodal,
    parse_full_cycle,
    parse_permutation,
    swap_product,
    unimodal_cycles,
    window_cycles,
)
from .polynomials import (
    BivariatePoly,
    catalan_number,
    catalan_qt,
    qt_bracket,
    qt_factorial_product,
    tree_recursion_I,
)
from .trees import (
    LabelledTree,
    coinv,
    depth,
    depth_enumerator,
    enumerate_trees,
    format_tree,
    inv,
    inversion_enumerator,
    parse_tree,
    tree_count,
    tree_stats,
    unrank_tree,
)

__version__ = "0.1.0"
