"""What the benchmark measures: workloads, metrics, bounds and run length.

This module is the single source of ``BENCHMARK.json``; regenerate that file
with ``python3 bench/spec.py --write`` after changing anything here, and
``python3 bench/smoke.py`` fails while the two disagree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 30

# One line each: why the workload exists, i.e. which layers it loads.
WORKLOADS = [
    (
        "plan_fixture",
        "Whole requests on 50-256 point clouds with exact normals: the all-pairs antipodal "
        "sampler loop dominates, normals are skipped, config save/load comes next.",
    ),
    (
        "plan_scan",
        "Whole requests on 257-2000 point binary PLY scans without normals: O(N^2) normal "
        "estimation dominates and the sampler takes its cheap random-pair path.",
    ),
    (
        "track",
        "One match per camera frame against set-up configurations, rigid motion plus "
        "0/2/5 mm keypoint noise: the only path where matcher cost and rejections show.",
    ),
]

# (name, unit, better, bound). Bounds are shares of the parent's median. On a
# shared host the speed of whole runs drifts by a quarter or more over minutes,
# so times get the widest bound; memory, counts and errors repeat closely.
END_TO_END = [
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("completed_share", "share", "higher", 0.05),
    ("target_error_mm_p90", "mm", "lower", 0.1),
    ("target_error_deg_p90", "deg", "lower", 0.1),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better). Times are the median self time per operation.
PER_LAYER = [
    ("grasp.antipodal_candidates.ms", "ms", "lower"),
    ("grasp.antipodal_candidates.yield", "ratio", "higher"),
    ("cloud.estimate_normals.ms", "ms", "lower"),
    ("cloud.estimate_normals.calls", "count", "lower"),
    ("pipeline.save_configuration.ms", "ms", "lower"),
    ("pipeline.save_configuration.kb", "KiB", "lower"),
    ("pipeline.load_configuration.ms", "ms", "lower"),
    ("grasp.rank_candidates.ms", "ms", "lower"),
    ("grasp.clearance_check.ms", "ms", "lower"),
    ("grasp.clearance_check.calls", "count", "lower"),
    ("grasp.clearance_check.pass_share", "ratio", "higher"),
    ("pipeline.validate_configuration.ms", "ms", "lower"),
    ("hand_model.lbs_forward.ms", "ms", "lower"),
    ("pipeline.pose_provider.ms", "ms", "lower"),
    ("pipeline.imagine_configuration.self_ms", "ms", "lower"),
    ("pipeline.match_to_observation.ms", "ms", "lower"),
    ("hand_model.classify_handedness.ms", "ms", "lower"),
    ("hand_model.classify_handedness.calls", "count", "lower"),
    ("hand_model.frame_from_joints.ms", "ms", "lower"),
    ("geometry.matching_transform.ms", "ms", "lower"),
    ("geometry.transform_pose.ms", "ms", "lower"),
    ("intent.resolve_intent_rules.ms", "ms", "lower"),
    ("io_formats.load_ply.ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.uncovered_share", "share", "lower"),
]

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.stdout.write(benchmark_text())
    else:
        target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        target.write_text(benchmark_text(), encoding="utf-8")
