#!/usr/bin/env python3
"""Desk-scale demo: imagine handover configurations for the fixture objects,
match each one to a synthetic observation, and export viewable OBJ scenes.

Writes all artifacts into --workdir (default ./demo_out) and prints one row
per object and hand. The rows on stdout depend only on the seed; the
wall-clock times and the work directory go to stderr.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from handover import io_formats, pipeline, synthetic
from handover.geometry import RigidTransform, rot_z
from handover.intent import TaskDescription


def run_object(cloud, handedness, config, workdir: Path, seed: int):
    task = TaskDescription(cloud.name, handedness)

    start = time.perf_counter()
    result = pipeline.imagine_configuration(
        task,
        cloud,
        pipeline.ProceduralPoseProvider(),
        pipeline.AntipodalGraspProvider(seed=seed),
        config,
    )
    imagine_s = time.perf_counter() - start

    config_path = workdir / f"{cloud.name}_{handedness}.json"
    pipeline.save_configuration(result, config_path)

    # pretend the camera saw the imagined hand somewhere else on the desk
    motion = RigidTransform(rot_z(np.radians(25.0)), np.array([0.45, -0.10, 0.30]))
    observed = motion.apply(result.hand.joints)
    start = time.perf_counter()
    target = pipeline.match_to_observation(result, observed)
    match_s = time.perf_counter() - start

    target_path = workdir / f"{cloud.name}_{handedness}_target.json"
    target_path.write_text(json.dumps(target.to_json_dict(), sort_keys=True, indent=1))

    scene_path = workdir / f"{cloud.name}_{handedness}.obj"
    io_formats.export_scene(result, scene_path)
    return result, imagine_s, match_s


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    config = pipeline.PipelineConfig.default()
    clouds = [synthetic.cylinder_cloud(), synthetic.box_cloud()]
    for cloud in clouds:
        io_formats.save_ply(cloud, workdir / f"{cloud.name}.ply")

    print(f"{'object':<10} {'hand':<6} {'valid':<6} {'width m':<9} {'clearance m':<12}")
    print(f"{'object':<10} {'hand':<6} {'imagine s':<10} {'match s':<8}", file=sys.stderr)
    for cloud in clouds:
        for handedness in ("right", "left"):
            result, imagine_s, match_s = run_object(
                cloud, handedness, config, workdir, args.seed
            )
            checks = result.validation.checks
            print(
                f"{cloud.name:<10} {handedness:<6} "
                f"{str(result.validation.passed):<6} "
                f"{checks['jaw_width'].measured:<9.4f} "
                f"{checks['clearance'].measured:<12.4f}"
            )
            print(
                f"{cloud.name:<10} {handedness:<6} {imagine_s:<10.3f} {match_s:<8.4f}",
                file=sys.stderr,
            )
    print(f"\nartifacts in {workdir}/", file=sys.stderr)


if __name__ == "__main__":
    main()
