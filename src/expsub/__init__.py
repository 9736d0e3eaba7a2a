"""Non-stationary subdivision schemes with general integer dilation matrices.

Builds and refines masks, and verifies the algebraic conditions under which a
scheme generates or reproduces spaces spanned by x^gamma exp(lambda . x).

`import expsub` loads no submodule.  Each exported name, and each submodule
name (`expsub.engine`, `expsub.cli`, ...), imports its module on first use,
under the import system's lock, so a first use from several threads is safe.
Loading scheme and space files touches only lattice, symbols, catalog and
files.  Names are looked up afresh on every access, never copied into this
namespace, so `expsub.check_reproduction` is always the checker's current
binding, monkeypatched or not.
"""

import importlib

_EXPORTS = {
    "lattice": "DilationMatrix LatticeError q_eval",
    "symbols": "ExpPolySpace LaurentSymbol SchemeSpec SymbolDomainError SymbolError",
    "engine": "EngineError GridData apply_operator basic_limit_samples box_indices grid_from_csv"
    " grid_from_json_obj grid_to_csv grid_to_json_obj is_interpolatory refine sample_exp_poly valid_interior",
    "checker": "DEFAULT_TOL BranchAmbiguityError CheckError ConditionRecord ConditionReport NoAdmissibleTauError"
    " NormalizationError StepwiseReport check_generation check_reproduction normalize solve_tau stepwise_test"
    " stepwise_tests",
    "catalog": "CATALOG CatalogEntry CatalogParameterError butterfly dual4_binary dual4_binary_limit_mask"
    " dual4_ternary dual4_ternary_limit_mask exp_box_spline exp_bspline exp_product sheared_convolution"
    " sqrt3_schemes",
    "files": "FileFormatError load_scheme load_scheme_obj load_space load_space_obj scheme_file_for_catalog",
}
_SUBMODULES = (*_EXPORTS, "cli")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
