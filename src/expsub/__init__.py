"""Non-stationary subdivision schemes with general integer dilation matrices.

Builds and refines masks, and verifies the algebraic conditions under which a
scheme generates or reproduces spaces spanned by x^gamma exp(lambda . x).
"""

from .lattice import (
    DilationMatrix,
    LatticeError,
    q_eval,
)
from .symbols import ExpPolySpace, LaurentSymbol, SchemeSpec, SymbolDomainError, SymbolError
from .engine import (
    EngineError,
    GridData,
    apply_operator,
    basic_limit_samples,
    box_indices,
    grid_from_csv,
    grid_from_json_obj,
    grid_to_csv,
    grid_to_json_obj,
    is_interpolatory,
    refine,
    sample_exp_poly,
    valid_interior,
)
from .checker import (
    DEFAULT_TOL,
    BranchAmbiguityError,
    CheckError,
    ConditionRecord,
    ConditionReport,
    NoAdmissibleTauError,
    NormalizationError,
    StepwiseReport,
    check_generation,
    check_reproduction,
    normalize,
    solve_tau,
    stepwise_test,
    stepwise_tests,
)
from .catalog import (
    CATALOG,
    CatalogEntry,
    CatalogParameterError,
    butterfly,
    dual4_binary,
    dual4_binary_limit_mask,
    dual4_ternary,
    dual4_ternary_limit_mask,
    exp_box_spline,
    exp_bspline,
    exp_product,
    sheared_convolution,
    sqrt3_schemes,
)
from .files import (
    FileFormatError,
    load_scheme,
    load_scheme_obj,
    load_space,
    load_space_obj,
    scheme_file_for_catalog,
)

__version__ = "0.1.0"
