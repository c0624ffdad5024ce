"""Metric definitions: end-to-end metrics, per-layer metrics and the map
from each layer to the end-to-end metric and workloads it should move.

BENCHMARK.json repeats the names, units and directions given here; the
benchmark's tests check that the two agree.
"""
from __future__ import annotations

# (metric, unit, better, bound): gated end-to-end metrics, from untraced runs only
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cases_per_s", "cases/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# reported with every untraced run, not gated: it is 0 on most workloads and
# moves in steps of whole operations from seed to seed
INFO_METRICS = [("failed_frac", "ratio", "lower")]

MAP_KINDS = ("FlatCollapse", "Tent", "ConvexCombo", "Compose",
             "AffineContraction", "Constant", "Identity")
SUITE_NAMES = ("flat", "field", "bump", "witness", "pairs", "invratio",
               "ladder", "porosity", "holes")
# per-span aggregate -> (unit, better)
SPAN_KEYS = {"calls": ("count", "lower"), "points": ("count", "lower"),
             "errors": ("count", "lower"), "self_s": ("s", "lower")}


def _spec(layer, span, *keys):
    return [(f"{span}.{k}", *SPAN_KEYS[k], layer) for k in keys]


def _each(layer, prefix, names, *keys):
    return [m for n in names for m in _spec(layer, f"{prefix}.{n}", *keys)]


# (metric, unit, better, layer) for every per-layer metric of a traced run
LAYER_METRICS = [
    *_spec("space", "space.norm_of", "calls", "self_s"),
    *_spec("space", "space.as_point", "calls", "self_s"),
    *_spec("space", "space.greedy_net", "calls", "self_s"),
    ("space.greedy_net.accept_ratio", "ratio", "higher", "space"),
    *_spec("space", "space.sample", "calls", "self_s", "errors"),
    *_each("maps kernels", "maps.apply", MAP_KINDS, "calls", "points", "self_s"),
    ("maps.apply.points_per_call", "points/call", "higher", "maps kernels"),
    *_spec("maps estimators", "maps.lip_global_est", "self_s"),
    *_spec("maps estimators", "maps.lip_local_profile", "calls", "self_s",
           "errors"),
    *_each("maps estimators", "maps",
           ("steep_density", "sup_dist_est", "random_nonexpansive"), "self_s"),
    *_each("perturb", "perturb", ("bump_perturb", "bump_witnesses",
                                  "flat_collapse", "direction_field"), "self_s"),
    *_each("gauges", "gauges", ("build_pair", "ladder", "select_j"), "self_s"),
    *_spec("gauges", "gauges.inverse", "calls"),
    *_each("porosity oracles", "porosity",
           ("intersects_ball", "contains", "sample_in_ball"), "calls", "self_s"),
    *_each("porosity oracles", "porosity", ("gamma_est", "upper_porous_at",
                                            "lower_porous_at", "verify_holes"),
           "self_s"),
    *_spec("porosity ladder", "porosity.low_slope_member", "calls", "self_s"),
    *_spec("porosity ladder", "porosity.ladder_witness", "self_s"),
    *[(f"harness.suite.{n}.s", "s", "lower", "harness") for n in SUITE_NAMES],
    ("harness.self_s", "s", "lower", "harness"),
    ("reports.dumps.self_s", "s", "lower", "reports"),
    ("reports.bytes", "bytes", "lower", "reports"),
    ("cli.main.self_s", "s", "lower", "cli"),
    ("trace.overhead_ratio", "ratio", "lower", "tracing"),
]

# layer -> which end-to-end metric it should move, on which workloads the
# mechanism shows, and where no change is predicted
LAYER_MAP = {
    "space": {
        "moves": ["cases_per_s"],
        "on": {"space.norm_of": ["typical-sweep", "dual-sweep", "verify-all"],
               "space.as_point": ["porosity-sweep"],
               "space.greedy_net": ["typical-sweep", "dual-sweep"]},
        "no_change_on": []},
    "maps kernels": {
        "moves": ["cases_per_s", "peak_rss_mb"],
        "on": ["verify-all", "typical-sweep"],
        "no_change_on": ["porosity-sweep"],
        "note": "on dual-sweep (about 2.5 points per call) a per-call cost "
                "shows as a loss"},
    "maps estimators": {
        "moves": ["cases_per_s", "failed_frac"],
        "on": ["typical-sweep", "dual-sweep"],
        "no_change_on": ["porosity-sweep"]},
    "perturb": {"moves": ["cases_per_s"], "on": ["verify-all"],
                "no_change_on": ["porosity-sweep"]},
    "gauges": {"moves": ["cases_per_s"], "on": ["dual-sweep"],
               "no_change_on": ["typical-sweep", "porosity-sweep"]},
    "porosity oracles": {"moves": ["cases_per_s"],
                         "on": ["porosity-sweep", "verify-all"],
                         "no_change_on": ["typical-sweep", "dual-sweep"]},
    "porosity ladder": {"moves": ["cases_per_s"], "on": ["dual-sweep"],
                        "no_change_on": ["typical-sweep", "porosity-sweep"]},
    "harness": {"moves": ["cases_per_s"], "on": ["verify-all"],
                "no_change_on": []},
    "reports": {"moves": ["cases_per_s"], "on": ["verify-all"],
                "no_change_on": ["typical-sweep", "dual-sweep",
                                 "porosity-sweep"]},
    "cli": {"moves": ["cases_per_s"], "on": ["porosity-sweep"],
            "no_change_on": []},
    "tracing": {"moves": [], "on": [], "no_change_on": []},
}
