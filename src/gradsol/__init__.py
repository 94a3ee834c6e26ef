"""Jet-based curvature engine and identity-verification suite for
gradient Ricci solitons."""

from .curvature import (
    CurvaturePack,
    covariant_derivative,
    curvature_pack,
    divergence,
    scalar_gradient,
)
from .conformal import (
    bach,
    bach_via_d_residual,
    cotton,
    cotton_weyl_divergence_residual,
    d_decomposition_residual,
    d_tensor,
    div_bach_residual,
    einstein_tensor,
    weyl,
)
from .jets import JetScalar, JetSpace, jet_lift
from .levelset import (
    AdaptedFrame,
    LevelSurfaceData,
    adapted_frame,
    frame_cotton_components,
    level_points,
    prop31_residual,
    prop32_report,
    second_fundamental_form,
)
from .solitons import (
    SolitonInstance,
    catalog,
    get_instance,
    load_extension_file,
    sample_points,
    validate_instance,
)
from .tensors import (
    MetricAtPoint,
    TensorJet,
    metric_at_point,
    raise_lower,
    tensor_norm_sq,
)
from .verify import CheckSpec, report_to_json, run_suite, thm52_status

__version__ = "0.1.0"
