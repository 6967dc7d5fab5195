#!/usr/bin/env python3
"""Snapshot the CLI's deterministic outputs into OUT_DIR, offline.

Runs, through ``handover.cli.main`` and with every path relative to OUT_DIR:
- ``imagine --sample-antipodal`` on the cylinder and box fixtures (with
  normals) and a 960-point jittered scan (without), both hands, seeds 0-4,
  and ``imagine --grasps`` on an 8-candidate file, both hands;
- ``imagine --hand-model`` on the cylinder, both hands, with a
  ``hand-model/1`` file of the synthetic right hand, and ``imagine --poses``
  on a pose library whose right cylinder pose sits 2 cm below the procedural
  one;
- ``match`` of every configuration against its imagined keypoints moved by a
  fixed rigid motion, with ``--hand-model`` for those imagined with it, and
  ``export`` of three configurations, one with ``--hand-model``;
- ``infer --keypoints`` and ``evaluate`` on the default catalog and corpus.

Every input and output file lands in OUT_DIR. ``transcript.txt`` holds each
command with its exit code, stdout and stderr (timing lines dropped), and
``transcript_hand_inputs.txt`` the same for the runs that read a hand-model
file or a pose library. Two runs of the same behaviour give snapshots that
``diff -r`` finds equal; to compare two checkouts, run this script once with
each one's ``src`` on PYTHONPATH:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py snap_new
    PYTHONPATH=../parent/src python3 scripts/snapshot_outputs.py snap_old
    diff -r snap_old snap_new
"""

import argparse
import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np

from handover import io_formats, pipeline, synthetic
from handover.cli import hand_models
from handover.cli import main as handover
from handover.cloud import ObjectCloud
from handover.geometry import RigidTransform, rot_z
from handover.grasp import antipodal_candidates, save_candidates
from handover.hand_model import HandPose, save_hand_model
from handover.intent import save_catalog, save_corpus

HANDS = ("right", "left")
SEEDS = range(5)
# The desk demo's motion from the imagined to the observed hand.
MOTION = RigidTransform(rot_z(np.radians(25.0)), np.array([0.45, -0.10, 0.30]))
_TIMING = re.compile(r'^\{"\w+_time_s": [-+.e\d]+\}$')


def write_inputs() -> list[str]:
    """The input files; returns the cloud names."""
    clouds = [synthetic.cylinder_cloud(), synthetic.box_cloud()]
    dense = synthetic.cylinder_cloud(rings=24, per_ring=40)
    jitter = np.random.default_rng(0).normal(scale=5e-4, size=dense.points.shape)
    clouds.append(ObjectCloud("scan", dense.points + jitter))
    for cloud in clouds:
        io_formats.save_ply(cloud, f"{cloud.name}.ply")
        for hand in HANDS:
            Path(f"task_{cloud.name}_{hand}.json").write_text(
                json.dumps({"object": cloud.name, "hand": hand})
            )
    save_candidates(antipodal_candidates(clouds[0], count=8, seed=3), "grasps.json")
    save_hand_model(synthetic.synthetic_hand_params("right"), "hand_model.json")
    pose = synthetic.receiving_pose_for(clouds[0], "right")
    lowered = HandPose(pose.translation - (0.0, 0.0, 0.02), pose.pose, pose.shape, "right")
    Path("poses.json").write_text(json.dumps({"cylinder": {"right": lowered.to_dict()}}))
    catalog = synthetic.default_catalog()
    save_catalog(catalog, "catalog.json")
    save_corpus(synthetic.sample_corpus(catalog), "corpus.json")
    for hand in HANDS:
        keypoints = synthetic.synthetic_rest_keypoints(hand)
        Path(f"keypoints_{hand}.json").write_text(json.dumps(keypoints.tolist()))
    return [cloud.name for cloud in clouds]


def run(log, *argv: str) -> int:
    """One CLI call, appended to the transcript with its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = handover(list(argv))
    kept = "".join(f"{line}\n" for line in err.getvalue().splitlines() if not _TIMING.match(line))
    log.write(f"$ {shlex.join(['handover', *argv])}\nexit {rc}\n{out.getvalue()}{kept}")
    return rc


def imagine_and_match(log, stem: str, cloud: str, hand: str, candidates: list[str],
                      hand_model: str | None = None) -> None:
    """imagine into <stem>.json with the ``candidates`` flags, then match it to
    its moved keypoints; a record imagined with the model file ``hand_model``
    is read with it, as ``match --hand-model`` reads it."""
    run(log, "imagine", "--task", f"task_{cloud}_{hand}.json", "--cloud", f"{cloud}.ply",
        *candidates, "--out", f"{stem}.json")
    if not Path(f"{stem}.json").exists():
        return
    model_flags = [] if hand_model is None else ["--hand-model", hand_model]
    config = pipeline.load_configuration(f"{stem}.json", hand_models(hand_model))
    observed = MOTION.apply(config.hand.joints)
    Path(f"{stem}_observed.json").write_text(json.dumps(observed.tolist()))
    run(log, "match", "--config", f"{stem}.json", "--observed-keypoints",
        f"{stem}_observed.json", *model_flags, "--out", f"{stem}_target.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", help="a new or empty directory")
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        parser.error(f"{out_dir} is not empty")
    os.chdir(out_dir)

    clouds = write_inputs()
    with open("transcript.txt", "w", encoding="utf-8") as log:
        for cloud in clouds:
            for hand in HANDS:
                for seed in SEEDS:
                    imagine_and_match(log, f"{cloud}_{hand}_{seed}", cloud, hand,
                                      ["--sample-antipodal", "--seed", str(seed)])
        for hand in HANDS:
            imagine_and_match(log, f"grasps_{hand}", "cylinder", hand, ["--grasps", "grasps.json"])
        run(log, "export", "--config", "cylinder_right_0.json", "--out", "cylinder_right_0.obj")
        run(log, "export", "--config", "box_left_0.json", "--out", "box_left_0.obj")
        for hand in HANDS:
            for text in ("pass me the knife", "I want to drive a nail"):
                run(log, "infer", "--text", text, "--catalog", "catalog.json",
                    "--keypoints", f"keypoints_{hand}.json")
        run(log, "evaluate", "--corpus", "corpus.json", "--catalog", "catalog.json",
            "--report", "report.json")
    # The runs that read a hand-model file or a pose library.
    with open("transcript_hand_inputs.txt", "w", encoding="utf-8") as log:
        for hand in HANDS:
            imagine_and_match(log, f"model_{hand}", "cylinder", hand,
                              ["--sample-antipodal", "--hand-model", "hand_model.json"],
                              "hand_model.json")
        imagine_and_match(log, "poses_right", "cylinder", "right",
                          ["--sample-antipodal", "--poses", "poses.json"])
        run(log, "export", "--config", "model_left.json", "--hand-model", "hand_model.json",
            "--out", "model_left.obj")


if __name__ == "__main__":
    main()
