"""Exact characters and fusion rings for Virasoro minimal models and affine osp(1|2).

The package is organized in layers:

- series: truncated exact q-series with fractional exponents, the theta
  sums and Euler products every character is built from, and the one
  character assembly (theta times one combined Euler product over q^(1/24)
  or q^(1/8), one integer pass, cached per character)
- minimal: Kac tables, su(2) x su(2) fusion rules and irreducible characters
  of the rational Virasoro models
- affine: osp(1|2) and sl2 affine characters and the parity branching that
  ties them together
- coset: coefficientwise verification of the c = 8/35 coset decomposition of
  the level-1 tensor square
- extension: module census and fusion ring of the simple-current extension
  V(1,1) + V(6,1) of the (10,7) model
- cli: all of the above as deterministic JSON/CSV/text commands
"""

from .affine import (
    BranchTerm,
    OspLabel,
    Sl2Label,
    branch_character,
    branch_model,
    branch_terms,
    branch_weight,
    h_alpha_beta,
    lowest_space,
    osp_central_charge,
    osp_character,
    osp_modules,
    osp_weight,
    singular_weights,
    sl2_central_charge,
    sl2_character,
    sl2_weight,
)
from .coset import (
    COSET_DECOMPOSITION,
    Comparison,
    DecompositionSpec,
    VerificationReport,
    coefficient_table,
    run_all,
    singular_ladder,
    verify_central_charge,
    verify_decomposition,
    verify_even_refinement,
)
from .extension import (
    ExtLabel,
    ExtModuleSum,
    FixedPointFusionWarning,
    classify_ext_modules,
    ext_fuse,
    ext_irreducibles,
    ext_label,
    fusion_table,
    simple_current_image,
)
from .minimal import KacLabel, MinimalModel, ModuleSum, kac_table_csv
from .series import (
    FracSeries,
    euler_product,
    monomial,
    series_from_terms,
    theta_null,
    weighted_theta,
)

__version__ = "0.1.0"
