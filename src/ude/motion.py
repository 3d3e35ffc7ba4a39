"""Motion data model: motion sequences, preprocessing and file I/O.

A motion sequence is T frames of J*3 joint positions in meters at a fixed
frame rate, root joint first, y up. Files are `fileio` tables, one row per
frame, that take no beats line:

    UDEMOTION v1 fps=<f> joints=<J>
    <J*3 space separated decimals>      (one line per frame)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import parse_body, read_header, write_table

MOTION_MAGIC = "UDEMOTION v1"


@dataclass
class MotionSequence:
    """T frames of J*3 joint positions (meters) at `fps` frames per second."""

    fps: float
    frames: np.ndarray  # [T, J*3]

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise DataError("frames must be a [T, J*3] array with T >= 1")
        if self.frames.shape[1] % 3 != 0:
            raise DataError("frame width must be a multiple of 3")
        if not 0 < self.fps < np.inf:
            raise DataError(f"fps must be finite and positive, got {self.fps}")
        if not np.all(np.isfinite(self.frames)):
            raise DataError("non-finite joint positions")

    @property
    def joint_count(self) -> int:
        return self.frames.shape[1] // 3

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    def positions(self) -> np.ndarray:
        """Frames reshaped to [T, J, 3]."""
        return self.frames.reshape(self.length, self.joint_count, 3)


def normalize_heading(m: MotionSequence) -> MotionSequence:
    """Rotate about the vertical axis so the first frame faces +X, and move
    the first frame's root to the origin in the ground plane.

    Heading is the ground-plane normal of the hip axis (left hip minus right
    hip, joints 1 and 2). Idempotent; preserves all inter-joint distances.
    """
    pos = m.positions().copy()
    root0 = pos[0, 0]
    pos[:, :, 0] -= root0[0]
    pos[:, :, 2] -= root0[2]

    hip = pos[0, 1] - pos[0, 2]
    lateral = np.array([hip[0], 0.0, hip[2]])
    norm = np.linalg.norm(lateral)
    if norm < 1e-8 * max(np.linalg.norm(hip), 1e-12) or norm < 1e-12:
        raise DataError("hip axis is parallel to the vertical axis")
    lateral /= norm
    # facing +X with y up puts the left hip at +Z; forward = up x lateral
    forward = np.array([lateral[2], 0.0, -lateral[0]])
    # R_y(theta) maps a ground-plane direction at angle alpha to alpha - theta
    theta = np.arctan2(forward[2], forward[0])
    c, s = np.cos(theta), np.sin(theta)
    x, z = pos[:, :, 0].copy(), pos[:, :, 2].copy()
    pos[:, :, 0] = c * x + s * z
    pos[:, :, 2] = -s * x + c * z
    return MotionSequence(m.fps, pos.reshape(m.length, -1))


def save_motion(m: MotionSequence, path) -> None:
    """Write `m` as a UDEMOTION file."""
    write_table(path, f"{MOTION_MAGIC} fps={m.fps!r} joints={m.joint_count}", m.frames)


def load_motion(path) -> MotionSequence:
    """Read a UDEMOTION file; a DataError names the file, and the first bad
    line when there is one."""
    fps, joints, body = read_header(path, MOTION_MAGIC, "fps", "joints", "motion")
    frames = parse_body(path, body, joints * 3, "frames")[0]
    try:
        return MotionSequence(fps, frames)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
