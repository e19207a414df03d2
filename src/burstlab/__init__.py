"""Fast-slow bursting models, bifurcation landscapes and burst-feature fitting."""

from .params import ModelParams, FULL7D, REDUCED4D, InvalidParameterError
from .paths import EllipsePath
from .model import ReducedFast, FullFast, gate_inf, gate_tau
from .integrate import (integrate, detect_events, Trajectory,
                        EventRecord, StepSizeError)
from .bifurcation import (Equilibrium, BifCurve, find_equilibria, eigen,
                          trace_fold_curve, trace_hopf_curve, verify_snic,
                          read_curves, write_curves)
from .landscape import (GridSpec, ScalarField, ContourSet, orbit_period,
                        relambda, build_field, extract_contours,
                        PERIOD, RE_LAMBDA)
from .features import (BurstTrace, FeatureVector, Spike, Stages,
                       ClassificationError, detect_spikes, segment_stages,
                       burst_features, feature_distance, run_driven,
                       run_autonomous, min_oscillation_amplitude)
from .fit import FitProblem, FitResult, Trial, fit_path

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "FULL7D", "REDUCED4D", "InvalidParameterError",
    "EllipsePath",
    "ReducedFast", "FullFast", "gate_inf", "gate_tau",
    "integrate", "detect_events", "Trajectory", "EventRecord",
    "StepSizeError",
    "Equilibrium", "BifCurve", "find_equilibria", "eigen",
    "trace_fold_curve", "trace_hopf_curve", "verify_snic",
    "read_curves", "write_curves",
    "GridSpec", "ScalarField", "ContourSet", "orbit_period", "relambda",
    "build_field", "extract_contours", "PERIOD", "RE_LAMBDA",
    "BurstTrace", "FeatureVector", "Spike", "Stages", "ClassificationError",
    "detect_spikes", "segment_stages", "burst_features", "feature_distance",
    "run_driven", "run_autonomous", "min_oscillation_amplitude",
    "FitProblem", "FitResult", "Trial", "fit_path",
    "__version__",
]
