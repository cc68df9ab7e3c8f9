"""torsionlab: planar rotation numbers, indices and transverse foliations."""

__version__ = "0.1.0"

from .expr import ExprField, Jet2, eval_jet2, eval_value, parse_expr, to_text
from .geom import (
    CoverPoint, Polyline, WindingPath, build_winding_path,
    circle_rotation_number, cover_lift, cover_project, winding_number,
)
from .genfunc import (
    CriticalPoint, GenIsotopy, PolynomialField, alt_trajectory,
    find_critical_points, gf_alt_apply, gf_apply, gf_jacobian, jacobian_path,
    alt_jacobian_path, trajectory, verify_twist_bound,
)
from .foliate import (
    Foliation, SingularityReport, TransversalityReport, classify_singularity,
    expression_foliation, gradient_foliation, integrate_leaf,
    transversality_report,
)
from .indices import (
    IsotopyOrder, PlanarIsotopy, compare_isotopies, concat_isotopies,
    expr_isotopy, genfunc_isotopy, homothety_isotopy,
    identity_isotopy, index_relation_check, isotopy_index, lefschetz_index,
    linking_number, rotation_isotopy, shear_isotopy, with_full_turns,
)
from .rotation import (
    AnnulusLiftMap, RotationSetEstimate, TorsionVerdict, TwistReport,
    isotopy_blowup_rotation, linear_blowup_rotation,
    local_rotation_set_estimate, rotation_samples, torsion_low_classify,
    twist_check_and_search,
)
from .fixtures import Scenario, fixture_names, load_fixture, run_fixture_claims
