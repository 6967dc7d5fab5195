"""Receiving-pose sampler over the wrist's three degrees of freedom.

Wrist angles are (pronation/supination, flexion/extension, radial/ulnar
deviation) in degrees, signed so the first named motion of each pair is
negative. Healthy-wrist bounds default to 76/85, 75/75 and 20/45 degrees.
Finger posture comes from one of three grip presets: open, precise grip,
or power grip.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import matrix_to_rot6d, rot_x, rot_y, rot_z
from .hand_model import NUM_JOINTS, HandPose

GRIP_TYPES = ("open", "precise", "power")

# Per-finger-joint curl in degrees (MCP, PIP, DIP); thumb curls at 60%.
_GRIP_CURL_DEG = {
    "open": (0.0, 0.0, 0.0),
    "precise": (35.0, 45.0, 30.0),
    "power": (65.0, 80.0, 50.0),
}


@dataclass(frozen=True)
class WristRanges:
    """(negative, positive) motion bounds per axis, degrees, all >= 0."""

    pronation_supination: tuple[float, float] = (76.0, 85.0)
    flexion_extension: tuple[float, float] = (75.0, 75.0)
    radial_ulnar: tuple[float, float] = (20.0, 45.0)

    def clip(self, angles_deg) -> tuple[np.ndarray, bool]:
        """Clamp (ps, fe, ru) into the bounds; flag whether anything moved."""
        a = np.asarray(angles_deg, dtype=float).reshape(3)
        bounds = (
            self.pronation_supination,
            self.flexion_extension,
            self.radial_ulnar,
        )
        clipped = np.array(
            [min(max(v, -neg), pos) for v, (neg, pos) in zip(a, bounds)]
        )
        return clipped, bool(np.any(clipped != a))

    def contains(self, angles_deg) -> bool:
        _, moved = self.clip(angles_deg)
        return not moved


@dataclass(frozen=True, eq=False)
class WristSample:
    angles_deg: np.ndarray  # (3,) after clipping
    grip: str
    clipped: bool
    pose: HandPose


def wrist_rotation(angles_deg) -> np.ndarray:
    """Root rotation for (ps, fe, ru) degrees: Rx(ps) @ Ry(fe) @ Rz(ru)."""
    ps, fe, ru = np.radians(np.asarray(angles_deg, dtype=float).reshape(3))
    return rot_x(ps) @ rot_y(fe) @ rot_z(ru)


@functools.lru_cache(maxsize=len(GRIP_TYPES))
def _grip_blocks(grip: str) -> np.ndarray:
    """Read-only per-joint 6D blocks of a grip preset; callers copy them."""
    if grip not in GRIP_TYPES:
        raise ValueError(f"grip must be one of {GRIP_TYPES}, got {grip!r}")
    mcp, pip, dip = _GRIP_CURL_DEG[grip]
    blocks = np.tile(matrix_to_rot6d(np.eye(3)), (NUM_JOINTS, 1))
    for finger in range(5):
        scale = 0.6 if finger == 0 else 1.0  # thumb
        for joint_in_finger, curl in enumerate((mcp, pip, dip)):
            joint = 3 * finger + 1 + joint_in_finger
            # Fingers run along +x with the palm facing +z; curling toward
            # the palm is a negative rotation about y.
            blocks[joint] = matrix_to_rot6d(rot_y(-np.radians(curl * scale)))
    blocks.setflags(write=False)
    return blocks


def sample_receiving_pose(
    angles_deg,
    grip: str = "open",
    ranges: WristRanges = WristRanges(),
    handedness: str = "right",
) -> WristSample:
    """One receiving pose; out-of-range wrist angles are clipped and flagged."""
    clipped_angles, clipped = ranges.clip(angles_deg)
    blocks = _grip_blocks(grip).copy()
    blocks[0] = matrix_to_rot6d(wrist_rotation(clipped_angles))
    pose = HandPose(translation=np.zeros(3), pose=blocks, handedness=handedness)
    return WristSample(angles_deg=clipped_angles, grip=grip, clipped=clipped, pose=pose)


def enumerate_receiving_poses(
    ranges: WristRanges = WristRanges(),
    grip: str = "open",
    handedness: str = "right",
) -> list[WristSample]:
    """The nine canonical receiving poses.

    Three flexion levels (max extension, neutral, max flexion) crossed with
    three representative pronation/deviation combinations.
    """
    ps_neg, ps_pos = ranges.pronation_supination
    fe_neg, fe_pos = ranges.flexion_extension
    ru_neg, ru_pos = ranges.radial_ulnar
    combos = [(-ps_neg, -ru_neg), (0.0, 0.0), (ps_pos, ru_pos)]
    flexions = [-fe_neg, 0.0, fe_pos]
    return [
        sample_receiving_pose((ps, fe, ru), grip=grip, ranges=ranges, handedness=handedness)
        for fe in flexions
        for (ps, ru) in combos
    ]
