"""Handover planning benchmark.

    python3 bench/run.py --workload plan_fixture --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process, one closed-loop client, no threads. The inputs of a seed are
made before timing starts and processed in whole passes until ``--seconds``
of passes have run, so every run of a seed does the same work per pass.
Every output is checked after its pass. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, and writes its spans to ``.bench_out/``. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (wrong
outputs and unexpected errors) and ``metrics``.

Only a refusal that the oracle confirms is not a failure: a
``HandednessMismatch`` on a noisy track frame whose keypoints really show
the other hand. It lowers ``completed_share`` instead; the issue's
``failed_share`` (refused plus wrong, over attempted) is printed with it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
import oracle
import spec
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
WARMUP_OPS = 4


def load_package():
    """Import the package afresh and build its default pipeline config."""
    for name in [m for m in sys.modules if m == "handover" or m.startswith("handover.")]:
        del sys.modules[name]
    package = importlib.import_module("handover")
    importlib.import_module("handover.io_formats")
    return package, package.PipelineConfig.default()


def timed_setup(make):
    """(result of the last set-up, median seconds over SETUP_REPEATS set-ups)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


# --- plan workloads ------------------------------------------------------------


class Plan:
    """infer -> imagine -> save/load through a temp file -> match."""

    def __init__(self, name, seed, tmp, ops):
        self.scan = name == "plan_scan"
        (self.pkg, self.config), self.setup_s = timed_setup(load_package)
        pkg = self.pkg
        corpus = [
            (item.text, item.truth.handedness, item.truth.object_name, item.keypoints)
            for tier in ("clear", "foggy")
            for item in pkg.synthetic.sample_corpus()
            if item.tier == tier
        ]
        rng = np.random.default_rng(seed)
        design = inputs.PLAN_SCAN if self.scan else inputs.PLAN_FIXTURE
        self.requests = inputs.plan_requests(rng, corpus, **design)[:ops]
        if self.scan:
            clouds = [inputs.jittered(rng, r.cloud) for r in self.requests]
            self.clouds = []
            for i, cloud in enumerate(clouds):
                path = Path(tmp) / f"scan-{i}.ply"
                path.write_bytes(inputs.ply_bytes(cloud.points))
                self.clouds.append(path)
            self.digest = inputs.digest(self.requests, clouds)
        else:
            self.clouds = [
                pkg.ObjectCloud(r.cloud.shape, r.cloud.points, r.cloud.normals)
                for r in self.requests
            ]
            self.digest = inputs.digest(self.requests)
        self.queries = [pkg.IntentQuery(r.text, keypoints=r.keypoints) for r in self.requests]
        self.grasp_providers = [
            pkg.AntipodalGraspProvider(seed=r.grasp_seed) for r in self.requests
        ]
        self.pose_provider = pkg.ProceduralPoseProvider()
        self.catalog = pkg.synthetic.default_catalog()
        self.path = str(Path(tmp) / "config.json")
        self.points = [len(r.cloud.points) for r in self.requests]

    def __len__(self):
        return len(self.requests)

    def op(self, i, pose_provider):
        pkg, pipeline = self.pkg, self.pkg.pipeline
        cloud = pkg.io_formats.load_ply(self.clouds[i]) if self.scan else self.clouds[i]
        task = pkg.intent.resolve_intent_rules(self.queries[i], self.catalog)
        config = pipeline.imagine_configuration(
            task, cloud, pose_provider, self.grasp_providers[i], self.config
        )
        pipeline.save_configuration(config, self.path)
        loaded = pipeline.load_configuration(self.path)
        observed = oracle.apply(self.requests[i].motion, config.hand.joints)
        return task, config, loaded, observed, pipeline.match_to_observation(loaded, observed)

    def check(self, outputs):
        """Per operation: None if it raised, else ([problems], mm, deg)."""
        return [
            None if error is not None else self._check(i, output)
            for i, (output, error) in enumerate(outputs)
        ]

    def _check(self, i, output):
        request = self.requests[i]
        task, config, loaded, observed, target = output
        problems = []
        if (task.object_name, task.handedness) != (request.object_name, request.hand):
            problems.append(f"resolved {task} for {request.text!r}")
        if not config.validation.passed:
            problems.append(f"validation failed: {config.validation.to_dict()}")
        if not config.grasp.width <= oracle.JAW_M:
            problems.append(f"jaw width {config.grasp.width!r} m")
        grasp_r, grasp_t = config.grasp.transform.rotation, config.grasp.transform.translation
        gripper, margin = self.config.gripper, self.config.selection.clearance_margin
        clearance = oracle.clearance_m(
            grasp_r, grasp_t, gripper.sphere_centers, gripper.sphere_radii, config.hand.vertices
        )
        if not clearance >= margin:
            problems.append(f"clearance {clearance:.6f} m below the {margin} m margin")
        problems += round_trip_problems(config, loaded)
        again = self.pkg.pipeline.match_to_observation(config, observed)
        if not same_target(again, target):
            problems.append("match after reload differs from match in memory")
        if not oracle.quaternion_ok(target.quaternion):
            problems.append(f"quaternion {target.quaternion.tolist()} is not unit with w >= 0")
        f = config.hand_frame
        imagined_r, imagined_c = oracle.frame(f.center, f.direction, f.normal)
        gap = oracle.relative_pose_gap(
            target.position, target.quaternion, grasp_r, grasp_t, imagined_r, imagined_c,
            observed, task.handedness == "right",
        )
        if not gap <= oracle.GUARANTEE_TOL:
            problems.append(f"relative pose differs by {gap:.3e}")
        mm, deg = oracle.target_error(
            target.position, target.quaternion, grasp_r, grasp_t, request.motion
        )
        return problems, float(mm), float(deg)


def record_arrays(config) -> dict:
    g = config.grasp.transform
    return {
        "cloud.points": config.cloud.points,
        "cloud.normals": config.cloud.normals,
        "hand_pose.translation": config.hand_pose.translation,
        "hand_pose.pose": config.hand_pose.pose,
        "hand_pose.shape": config.hand_pose.shape,
        "hand.vertices": config.hand.vertices,
        "hand.joints": config.hand.joints,
        "grasp.rotation": g.rotation,
        "grasp.translation": g.translation,
        "grasp.width": np.float64(config.grasp.width),
        "hand_frame.center": config.hand_frame.center,
        "hand_frame.direction": config.hand_frame.direction,
        "hand_frame.normal": config.hand_frame.normal,
        "selection.score": np.float64(config.selection.score),
        "selection.clearance": np.float64(config.selection.clearance.min_distance),
    }


def record_fields(config) -> tuple:
    return (
        config.task.to_dict(),
        config.cloud.name,
        config.hand_pose.handedness,
        config.hand.handedness,
        config.grasp.source,
        config.selection.selected_index,
        list(config.selection.fallbacks),
        config.validation.to_dict(),
    )


def bitwise_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip_problems(config, loaded) -> list[str]:
    before, after = record_arrays(config), record_arrays(loaded)
    problems = [f"{key} changed in the save/load round trip"
                for key in before if not bitwise_equal(before[key], after[key])]
    if record_fields(config) != record_fields(loaded):
        problems.append("record fields changed in the save/load round trip")
    return problems


def same_target(a, b) -> bool:
    return (
        bitwise_equal(a.position, b.position)
        and bitwise_equal(a.quaternion, b.quaternion)
        and bitwise_equal(a.transform.as_matrix(), b.transform.as_matrix())
    )


# --- track workload --------------------------------------------------------------


class Track:
    """One match per camera frame against configurations imagined at set-up."""

    def __init__(self, name, seed, tmp, ops):
        rng = np.random.default_rng(seed)
        clouds = inputs.track_clouds(rng)
        grasp_seed = int(rng.integers(2**31))

        def setup():
            pkg, config = load_package()
            configs = [
                pkg.pipeline.imagine_configuration(
                    pkg.TaskDescription(cloud.shape, hand),
                    pkg.ObjectCloud(cloud.shape, cloud.points, cloud.normals),
                    pkg.ProceduralPoseProvider(),
                    pkg.AntipodalGraspProvider(seed=grasp_seed),
                    config,
                )
                for cloud in clouds
                for hand in ("right", "left")
            ]
            return pkg, config, configs

        (self.pkg, self.config, self.configs), self.setup_s = timed_setup(setup)
        frames = inputs.track_frames(rng, len(self.configs), inputs.TRACK_FRAMES)
        frames = [a[:ops] for a in frames]
        self.digest = inputs.digest(clouds, grasp_seed, frames)
        self.config_of, noise_mm, self.motions, noise = frames
        self.noisy = noise_mm > 0
        joints = np.array([c.hand.joints for c in self.configs])[self.config_of]
        self.observed = (
            np.einsum("nij,nkj->nki", self.motions[:, :3, :3], joints)
            + self.motions[:, None, :3, 3]
            + 1e-3 * noise_mm[:, None, None] * noise
        )
        # Per configuration: grasp, imagined frame and hand.
        transforms = [c.grasp.transform for c in self.configs]
        self.grasp_r = np.array([t.rotation for t in transforms])
        self.grasp_t = np.array([t.translation for t in transforms])
        imagined = [
            oracle.frame(c.hand_frame.center, c.hand_frame.direction, c.hand_frame.normal)
            for c in self.configs
        ]
        self.imagined_r = np.array([r for r, _ in imagined])
        self.imagined_c = np.array([c for _, c in imagined])
        self.right = np.array([c.task.handedness == "right" for c in self.configs])
        self.points = [len(c.cloud.points) for c in self.configs]

    def __len__(self):
        return len(self.config_of)

    def op(self, i, pose_provider):
        return self.pkg.pipeline.match_to_observation(
            self.configs[self.config_of[i]], self.observed[i]
        )

    def check(self, outputs):
        """Per frame: None if it raised, else ([problems], mm, deg); one
        vectorised pass over every matched frame."""
        results = [None] * len(outputs)
        done = np.array([i for i, (_, error) in enumerate(outputs) if error is None], dtype=int)
        if not done.size:
            return results
        position = np.array([outputs[i][0].position for i in done])
        quaternion = np.array([outputs[i][0].quaternion for i in done])
        config = self.config_of[done]
        right = self.right[config]
        wrong_hand = oracle.is_right(self.observed[done]) != right
        quaternion_ok = oracle.quaternion_ok(quaternion)
        gap = oracle.relative_pose_gap(
            position, quaternion, self.grasp_r[config], self.grasp_t[config],
            self.imagined_r[config], self.imagined_c[config], self.observed[done], right,
        )
        mm, deg = oracle.target_error(
            position, quaternion, self.grasp_r[config], self.grasp_t[config], self.motions[done]
        )
        for k, i in enumerate(done):
            problems = []
            if wrong_hand[k]:
                problems.append("matched a frame whose keypoints show the other hand")
            if not quaternion_ok[k]:
                problems.append(f"quaternion {quaternion[k].tolist()} is not unit with w >= 0")
            if not gap[k] <= oracle.GUARANTEE_TOL:
                problems.append(f"relative pose differs by {gap[k]:.3e}")
            results[i] = (problems, float(mm[k]), float(deg[k]))
        return results

    def refusal_confirmed(self, i, error) -> bool:
        """A handedness refusal on a noisy frame whose keypoints show the other hand."""
        return (
            isinstance(error, self.pkg.errors.HandednessMismatch)
            and self.noisy[i]
            and oracle.is_right(self.observed[i]) != self.right[self.config_of[i]]
        )


WORKLOADS = {"plan_fixture": Plan, "plan_scan": Plan, "track": Track}


# --- running -------------------------------------------------------------------


class Tally:
    """Outcomes of every operation, and each pass's wall time and latencies."""

    def __init__(self):
        self.attempted = self.refused = 0
        self.wrong: list[str] = []
        # (traced, wall seconds, latency of each op or None if it did not complete)
        self.passes: list[tuple[bool, float, list[float | None]]] = []
        self.error_mm: list[float] = []
        self.error_deg: list[float] = []

    def add(self, workload, traced, outputs, latencies, wall):
        completed = [None] * len(outputs)
        checks = workload.check(outputs)
        for i, ((_, error), seconds, check) in enumerate(zip(outputs, latencies, checks)):
            self.attempted += 1
            if error is not None:
                if isinstance(workload, Track) and workload.refusal_confirmed(i, error):
                    self.refused += 1
                else:
                    self.wrong.append(f"op {i}: {error!r}")
                continue
            problems, mm, deg = check
            if problems:
                self.wrong.append(f"op {i}: " + "; ".join(problems))
                continue
            completed[i] = seconds
            self.error_mm.append(mm)
            self.error_deg.append(deg)
        self.passes.append((traced, wall, completed))

    @property
    def completed(self):
        return self.attempted - self.refused - len(self.wrong)

    def walls(self, traced):
        return [wall for t, wall, _ in self.passes if t == traced]

    def input_latency_s(self):
        """Each input's mean latency over the untraced passes it completed in.

        Every pass repeats the same inputs, and the shared host's speed
        flips between two levels about 1.6x apart many times a second, so a
        single sub-millisecond sample lands on either level; the mean over
        passes does not.
        """
        runs = [completed for traced, _, completed in self.passes if not traced]
        per_input = zip(*runs)
        return [statistics.fmean(s for s in samples if s is not None)
                for samples in per_input if any(s is not None for s in samples)]


def run_pass(workload, pose_provider, trace=None, first_op=0):
    """One pass over the inputs: ([(output, error)], [seconds], wall seconds)."""
    outputs, latencies = [], []
    clock = time.perf_counter
    pass_start = clock()
    for i in range(len(workload)):
        if trace is not None:
            trace.begin(first_op + i)
        start = clock()
        try:
            output, error = workload.op(i, pose_provider), None
        except Exception as exc:  # recorded and reported as a wrong output
            output, error = None, exc
            if not isinstance(exc, workload.pkg.errors.HandoverError):
                traceback.print_exc(file=sys.stderr)
        latencies.append(clock() - start)
        if trace is not None:
            trace.end()
        outputs.append((output, error))
    return outputs, latencies, clock() - pass_start


def environment(args, digest) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def end_to_end(workload, tally) -> dict:
    latency_ms = [1000.0 * s for s in tally.input_latency_s()]
    return {
        "latency_ms_p50": percentile(latency_ms, 50),
        "latency_ms_p90": percentile(latency_ms, 90),
        "ops_per_s": tally.completed / sum(tally.walls(False)),
        "completed_share": tally.completed / tally.attempted,
        "target_error_mm_p90": percentile(tally.error_mm, 90),
        "target_error_deg_p90": percentile(tally.error_deg, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": workload.setup_s,
    }


def per_layer(spans, tally) -> dict:
    layers, roots = tracer.per_op_layers(spans)
    ops = sorted(roots)

    def per_op(name, field):
        return [layers[op][name][field] if name in layers[op] else 0 for op in ops]

    def median_ms(name):
        return statistics.median(per_op(name, 0)) / 1e6

    def calls(name):
        return statistics.fmean(per_op(name, 1))

    def count_ratio(name):
        total = sum(per_op(name, 1))
        return sum(per_op(name, 2)) / total if total else 0.0

    out = {}
    for name, *_ in spec.PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "ms" or stat == "self_ms":
            out[name] = median_ms(layer)
        elif stat == "calls":
            out[name] = calls(layer)
    out["grasp.antipodal_candidates.yield"] = count_ratio("grasp.antipodal_candidates")
    out["grasp.clearance_check.pass_share"] = count_ratio("grasp.clearance_check")
    out["pipeline.save_configuration.kb"] = statistics.median(
        per_op("pipeline.save_configuration", 2)
    )
    out["trace.overhead_share"] = (
        statistics.median(tally.walls(True)) / statistics.median(tally.walls(False)) - 1.0
    )
    out["trace.uncovered_share"] = sum(s for _, s in roots.values()) / sum(
        d for d, _ in roots.values()
    )
    return {name: out[name] for name, *_ in spec.PER_LAYER}


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        workload = WORKLOADS[args.workload](args.workload, args.seed, tmp, args.ops)
        env = environment(args, workload.digest)
        print("env " + json.dumps(env, sort_keys=True))
        pose_provider = workload.pose_provider if isinstance(workload, Plan) else None
        for i in range(min(WARMUP_OPS, len(workload))):
            try:
                workload.op(i, pose_provider)
            except workload.pkg.errors.HandoverError:
                pass  # a refused track frame; the timed passes count and check it

        tally = Tally()
        trace = tracer.Tracer(workload.pkg) if args.trace else None
        traced_pose_provider = (
            trace.wrap(pose_provider, "pipeline.pose_provider") if trace and pose_provider else None
        )
        busy = 0.0
        while busy < args.seconds or (trace and not tally.walls(True)):
            traced = bool(trace) and len(tally.walls(False)) > len(tally.walls(True))
            if traced:
                trace.install()
                try:
                    first_op = len(tally.walls(True)) * len(workload)
                    result = run_pass(workload, traced_pose_provider, trace, first_op)
                finally:
                    trace.uninstall()
            else:
                result = run_pass(workload, pose_provider)
            busy += result[2]
            tally.add(workload, traced, *result)

    print(
        f"{args.workload} seed {args.seed}: {len(tally.walls(False))} untraced and "
        f"{len(tally.walls(True))} "
        f"traced passes of {len(workload)} ops, {min(workload.points)}-"
        f"{max(workload.points)} cloud points; {tally.attempted} attempted, "
        f"{tally.completed} completed, {tally.refused} refused (confirmed "
        f"HandednessMismatch on noisy frames), {len(tally.wrong)} wrong"
    )
    print(f"failed_share {(tally.refused + len(tally.wrong)) / tally.attempted:.6f} "
          "(refused + wrong over attempted)")
    for line in tally.wrong[:10]:
        print("wrong " + line, file=sys.stderr)

    if trace:
        metrics = per_layer(trace.spans, tally)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        trace.write(path, env)
        print(f"spans: {len(trace.spans)} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(workload, tally)
        print(f"samples: latency over n={len(tally.input_latency_s())} inputs, each the mean "
              f"of {len(tally.passes)} passes; target error n={len(tally.error_mm)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {spec.UNITS[name]}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.wrong),
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, then a summary."""
    results = {}
    for name in spec.WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            command += ["--ops", str(args.ops)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':42s}" + "".join(f"{w:>16s}" for w in results))
    for metric in names:
        print(f"{metric + ' (' + spec.UNITS[metric] + ')':42s}"
              + "".join(f"{r['metrics'][metric]['value']:16.6g}" for r in results.values()))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="use only the first N inputs of a pass (smoke checks)")
    args = parser.parse_args(argv)
    if not (SRC / "handover" / "__init__.py").is_file():
        print(f"no package source at {SRC}/handover; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
