"""Records load on another BLAS kernel than the one that wrote them.

numpy's OpenBLAS is built with DYNAMIC_ARCH: it picks its kernels for the CPU
at start-up, and OPENBLAS_CORETYPE overrides the pick. Loading a record
derives its hand frame, selection and validation again and compares them with
the stored ones as JSON text, so a derived value whose bits follow the kernel
makes a record written on one machine exit 2 on another.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import handover
from handover import pipeline, synthetic
from handover.cloud import ObjectCloud
from handover.geometry import RigidTransform, rot_z
from handover.intent import TaskDescription

pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)

# Runs `handover match` on each argv of the JSON list in sys.argv[1] and
# prints the exit codes as one JSON list.
_MATCH_EACH = """
import contextlib, io, json, sys
from handover.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def _clouds():
    """The fixtures of scripts/snapshot_outputs.py: cylinder, box and a jittered
    scan without normals."""
    dense = synthetic.cylinder_cloud(rings=24, per_ring=40)
    jitter = np.random.default_rng(0).normal(scale=5e-4, size=dense.points.shape)
    return [synthetic.cylinder_cloud(), synthetic.box_cloud(),
            ObjectCloud("scan", dense.points + jitter)]


def test_records_load_under_another_kernel(tmp_path):
    """Records imagined here, on both hands and sampler seeds 0-4, load and
    match with exit 0 under the Prescott kernel."""
    motion = RigidTransform(rot_z(np.radians(25.0)), np.array([0.45, -0.10, 0.30]))
    config = pipeline.PipelineConfig.default()
    runs = []
    for cloud in _clouds():
        for hand in ("right", "left"):
            for seed in range(5):
                stem = tmp_path / f"{cloud.name}_{hand}_{seed}"
                imagined = pipeline.imagine_configuration(
                    TaskDescription(cloud.name, hand), cloud, pipeline.ProceduralPoseProvider(),
                    pipeline.AntipodalGraspProvider(seed=seed), config,
                )
                pipeline.save_configuration(imagined, f"{stem}.json")
                observed = motion.apply(imagined.hand.joints)
                Path(f"{stem}_observed.json").write_text(json.dumps(observed.tolist()))
                runs.append(["match", "--config", f"{stem}.json", "--observed-keypoints",
                             f"{stem}_observed.json", "--out", f"{stem}_target.json"])

    src = str(Path(handover.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _MATCH_EACH, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    codes = json.loads(proc.stdout)
    refused = [Path(argv[2]).name for argv, code in zip(runs, codes) if code != 0]
    assert not refused, f"{len(refused)} of {len(runs)} records refused:\n{proc.stderr}"
