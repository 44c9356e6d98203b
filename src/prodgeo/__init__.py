"""Production functions as graph surfaces: Gaussian and mean curvature
from the fundamental forms via second-order forward-mode autodiff, and the
returns-to-scale / developability characterizations of the VES and
Kadiyala families."""

from .curvature import (DevelopabilityReason, ReturnsToScale, kadiyala_curvature_closed,
                        kadiyala_is_developable, returns_to_scale,
                        ves_curvature_closed, ves_theorem_verdict)
from .errors import (ConstraintViolation, DomainError, InvalidSpecError,
                     NonFiniteError, NonPositiveInputError, ProdGeoError,
                     SingularPointError)
from .harness import (DEFAULT_GRID, GridReport, GridSpec, Spacing, VerifySummary,
                      build_grid_report, emit_grid_report, parse_grid_spec,
                      random_kadiyala_params, random_ves_params,
                      run_verify_theorem1, run_verify_theorem2)
from .jets import Jet2, constant, seed, seed_u, seed_v
from .models import (Family, FamilyTag, KadiyalaParams, VesParams,
                     kadiyala_eval, kadiyala_specialize, kadiyala_validate,
                     params_from_json, params_to_json, ves_domain_valid,
                     ves_eval, ves_validate)
from .surface import SignClass, classify_sign, curvature_from_jet, curvatures

__version__ = "0.1.0"
