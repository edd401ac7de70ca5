"""etalab: a simulation lab for travel-time estimators on grid road networks.

Build a directed grid network, give its segments a correlated travel-time
distribution, sample historical trips, and compare segment-based,
grouped-segment, route-based, and Bayes-optimal predictors by exact
integrated risk, Monte Carlo simulation, and an information lower bound.
"""

__version__ = "0.1.0"
# every counter is numpy/scipy array code; kept so run records stay comparable
kernel_backend = "numpy"

from .covariance import (CovarianceModel, assumption_diagnostics, diffusion_covariance,
                         explicit_covariance, gram_covariance, normalized_laplacian)
from .estimators import (PosteriorModel, Prediction, WeightRule,
                         optimal_gseg_weights, optimal_route_weight,
                         optimal_seg_weights, predict_bayes_optimal, predict_gseg,
                         predict_route, predict_segment)
from .harness import (ExamplesReport, SweepConfig, SweepRow, emit_csv,
                      emit_manifest, run_examples, run_sweep)
from .network import (AdjacencyRule, RoadNetwork, Segment, SegmentGraph,
                      build_grid, segment_graph)
from .risk import (MCRisk, RiskReport, check_nb_condition, dominance_audit,
                   lower_bound, mc_risk, risk_affine, risk_gseg, risk_optimal,
                   risk_route, risk_seg)
from .trips import (Neighborhood, NeighborhoodKind, NeighborhoodSpec, ODLaw,
                    PriorSpec, Route, TripDataset, resolve_neighborhood,
                    sample_route, sample_routes, sample_trips, synthesize_times)

__all__ = [
    "__version__",
    "kernel_backend",
    "AdjacencyRule", "RoadNetwork", "Segment", "SegmentGraph", "build_grid",
    "segment_graph",
    "CovarianceModel", "assumption_diagnostics",
    "diffusion_covariance", "explicit_covariance", "gram_covariance",
    "normalized_laplacian",
    "Neighborhood", "NeighborhoodKind", "NeighborhoodSpec", "ODLaw", "PriorSpec",
    "Route", "TripDataset", "resolve_neighborhood", "sample_route",
    "sample_routes", "sample_trips", "synthesize_times",
    "PosteriorModel", "Prediction", "WeightRule", "optimal_gseg_weights",
    "optimal_route_weight", "optimal_seg_weights", "predict_bayes_optimal",
    "predict_gseg", "predict_route", "predict_segment",
    "MCRisk", "RiskReport", "check_nb_condition", "dominance_audit",
    "lower_bound", "mc_risk", "risk_affine", "risk_gseg", "risk_optimal",
    "risk_route", "risk_seg",
    "ExamplesReport", "SweepConfig", "SweepRow", "emit_csv", "emit_manifest",
    "run_examples", "run_sweep",
]
