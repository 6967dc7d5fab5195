"""Spans around the package's public functions, recorded from outside.

Each wrapper replaces a function at the module attribute its caller looks it
up through (``handover.pipeline.clearance_check`` is what
``imagine_configuration`` calls), so nothing inside the package changes.
Wrappers are installed only for traced passes and removed afterwards, which
lets one process compare traced and untraced passes over the same inputs.
Spans live in memory as ``[name, start_ns, end_ns, parent, op, count]`` and
are written out once the run ends.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

# (module, attribute, span name, count taken from (result, args, kwargs))
WRAP_SITES = [
    ("intent", "resolve_intent_rules", "intent.resolve_intent_rules", None),
    ("intent", "classify_handedness", "hand_model.classify_handedness", None),
    ("io_formats", "load_ply", "io_formats.load_ply", None),
    ("cloud", "estimate_normals", "cloud.estimate_normals", None),
    ("pipeline", "imagine_configuration", "pipeline.imagine_configuration", None),
    (
        "pipeline",
        "antipodal_candidates",
        "grasp.antipodal_candidates",
        lambda result, args, kwargs: len(result) / kwargs["count"],
    ),
    ("pipeline", "lbs_forward", "hand_model.lbs_forward", None),
    ("pipeline", "rank_candidates", "grasp.rank_candidates", None),
    (
        "pipeline",
        "clearance_check",
        "grasp.clearance_check",
        lambda result, args, kwargs: float(result.passed),
    ),
    ("pipeline", "hand_frame_of", "hand_model.hand_frame_of", None),
    ("pipeline", "validate_configuration", "pipeline.validate_configuration", None),
    (
        "pipeline",
        "save_configuration",
        "pipeline.save_configuration",
        lambda result, args, kwargs: os.path.getsize(args[1]) / 1024.0,
    ),
    ("pipeline", "load_configuration", "pipeline.load_configuration", None),
    ("pipeline", "match_to_observation", "pipeline.match_to_observation", None),
    ("pipeline", "classify_handedness", "hand_model.classify_handedness", None),
    ("pipeline", "frame_from_joints", "hand_model.frame_from_joints", None),
    ("hand_model", "classify_handedness", "hand_model.classify_handedness", None),
    ("pipeline", "transport_grasp", "pipeline.transport_grasp", None),
    ("pipeline", "matching_transform", "geometry.matching_transform", None),
    ("pipeline", "transform_pose", "geometry.transform_pose", None),
]

ROOT_SPAN = "op"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    def wrap(self, fn, name, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._op is None:  # output checks run outside any operation
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self._op, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in WRAP_SITES:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin(self, op_id) -> None:
        self._op = op_id
        self.spans.append([ROOT_SPAN, time.perf_counter_ns(), 0, -1, op_id, None])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()
        self._op = None

    def write(self, path, header: dict) -> None:
        """One JSON line of header, then one per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_op_layers(spans):
    """{op: {name: [self_ns, calls, count_sum]}} plus each root's (duration, self).

    A span's self time is its duration minus its children's durations; the
    wrapped calls run in one thread, so children nest and never overlap.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    layers: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0.0]))
    roots = {}
    for index, (name, start, end, _, op, count) in enumerate(spans):
        self_ns = end - start - child_ns[index]
        if name == ROOT_SPAN:
            roots[op] = (end - start, self_ns)
            continue
        entry = layers[op][name]
        entry[0] += self_ns
        entry[1] += 1
        entry[2] += count or 0.0
    return layers, roots
