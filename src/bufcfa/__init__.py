"""Confirmatory factor analysis with balance constraints on secondary loadings."""

import types as _types

from .constraints import (
    BalanceConstraint,
    ConstraintMode,
    ConstraintSet,
    buffered_quality_index,
    build_fixed_weight_constraints,
    build_one_step_constraints,
    constraint_jacobian,
    swap_members,
)
from .errors import (
    BufcfaError,
    InputError,
    InvalidPopulationError,
    NotTestableError,
    NumericalError,
    ParseError,
    StructureError,
)
from .estimation import SampleMoments, fit, ml_discrepancy, ml_gradient
from .fit_indices import (
    FitReport,
    baseline_fit,
    build_report,
    cfi,
    degrees_of_freedom,
    rmsea,
    srmr,
)
from .model import (
    CellRole,
    FactorModel,
    LoadingPattern,
    PopulationModel,
    Solution,
    implied_covariance,
    pack,
    standardizing_uniqueness,
    unpack,
    validate_model,
)
from .io import (
    read_correlation_matrix,
    read_raw_data,
    read_result,
    write_raw_data,
    write_result,
)
from .modelspec import ModelSpecDocument, format_model_spec, parse_grid_document, parse_model_spec
from .procedures import (
    ProcedureTrace,
    TraceStep,
    icm,
    multi_step,
    one_step,
    specification_search,
)
from .simulation import (
    CellSummary,
    GridSpec,
    RepRecord,
    align_to_population,
    balanced_population,
    block_pattern,
    draw_sample,
    rmsd,
    run_grid,
)

__version__ = "0.1.0"

# A star import takes the public names, not the submodules bound above:
# ``io`` among them would shadow the standard library's module.
__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _types.ModuleType)]
