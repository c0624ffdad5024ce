"""Numerical laboratory for non-expansive mappings on convex bodies.

Building blocks: convex bodies and nets (`space`), non-expansive map
expressions with Lipschitz estimators (`maps`), collapse/bump
perturbations with quotient witnesses (`perturb`), gauges, companion
pairs and scale ladders (`gauges`), hole-size estimation and porosity
verdicts (`porosity`), deterministic reports (`reports`), and the
experiment harness plus CLI (`harness`, `cli`).
"""
from .errors import (DegenerateBodyError, DomainError, EstimationError,
                     GaugeError, GeometryError, LadderExhausted, NelabError,
                     ParameterError, RangeError, SamplerExhausted)
from .gauges import (Gauge, GaugePair, Ladder, PiecewiseGauge, PowerGauge,
                     RatioGauge, RungSelection, SqrtRatioGauge, build_pair,
                     gauge_from_desc, gauge_K, ladder, least_concave_majorant,
                     select_j)
from .harness import (ExperimentConfig, run_dual, run_porosity, run_typical,
                      run_verify, SUITES)
from .maps import (AffineContraction, Compose, Constant, ConvexCombo,
                   FlatCollapse, GeneratorConfig, Identity, LipEstimate,
                   MapExpr, Tent, lip_global_est, lip_local_profile,
                   pair_quotients, random_nonexpansive, steep_density,
                   sup_dist_est)
from .perturb import (BumpSpec, BumpWitnesses, DirectionField, FlatSpec,
                      bump_perturb, bump_witnesses, direction_field,
                      flat_collapse)
from .porosity import (FinitePointSet, HoleWitness, IntervalUnionSet,
                       LadderWitnessReport, LowSlopeResult, PorosityVerdict,
                       ReciprocalSet, SetOracle, closing_bound, gamma_est,
                       ladder_witness, low_slope_alpha, low_slope_member,
                       lower_porous_at, upper_porous_at)
from .reports import CaseRecord, Report, dumps, emit_report
from .space import (Ball, Box, ConvexBody, Hull, Net, Norm, as_point,
                    body_from_desc, greedy_net, grid_candidates)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
