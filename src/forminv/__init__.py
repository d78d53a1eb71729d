"""forminv: exact inversion of formal maps z - H(z) over the rationals.

Sparse multivariate truncated power series with exact rational
coefficients, five independent inversion algorithms with a cross-checking
oracle, rooted-tree expansion machinery, the deformation family
z - tH with its transport PDE and formal flow, and a benchmarking CLI.
"""

from .errors import (
    CanonicalFormError,
    DimensionMismatch,
    DivisibilityError,
    ForminvError,
    HomogeneityError,
    MapFormatError,
    MethodDisagreement,
    NilpotencyError,
    OutputTooLarge,
    SubstitutionError,
    TruncationError,
)
from .rat import Rat, rat_from_str, rat_to_str
from .series import (
    INF,
    MapF,
    MSeries,
    PolyMap,
    compose,
    jacobian,
    jacobian_det,
    series_det,
    series_from_terms,
    series_sum,
    unit_inverse,
)
from .laurent import laurent_inv_power, residue
from .trees import (
    RootedTree,
    TreePolyCache,
    enumerate_trees,
    order_polynomial,
    strict_order_count,
    tree_poly,
)
from .inversion import (
    BForm,
    GradedInverse,
    MAP_METHODS,
    METHODS,
    applicable_methods,
    b_form_apply,
    cross_check,
    invert_abhyankar_gurjar,
    invert_bcw,
    invert_fixed_point,
    invert_homogeneous,
    invert_recurrent,
    jacobi_coefficient,
    lagrange_coefficient,
    recurrent_layers,
)
from .flow import (
    FlowSeries,
    Report,
    check_euler_identities,
    check_gpde,
    check_lemma31,
    check_newp,
    check_pde,
    check_prop310,
    deformation_inverse,
    formal_flow,
    pde_residual,
    polynomiality_probe,
    power_map,
    symmetry_detector,
)
from .mapdoc import (
    MapDocument,
    parse_map,
    serialize_map,
    serialize_polymap,
)
from .bench import BenchRecord, run_bench, to_csv, to_table

__version__ = "0.1.0"
