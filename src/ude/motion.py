"""Motion data model: skeletons, motion sequences, preprocessing and file I/O.

A motion sequence is T frames of J*3 joint positions in meters at a fixed
frame rate, root joint first, y up. Files use a plain text format:

    UDEMOTION v1 fps=<f> joints=<J>
    <J*3 space separated decimals>      (one line per frame)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError, PreprocessingError
from .fileio import atomic_write_text, read_text

MOTION_MAGIC = "UDEMOTION v1"


@dataclass(frozen=True)
class Skeleton:
    """Joint names, parent indices (root has parent -1) and rest offsets."""

    names: tuple
    parents: tuple
    offsets: np.ndarray  # [J, 3] offset from parent, meters

    def __post_init__(self):
        j = len(self.names)
        if len(self.parents) != j or self.offsets.shape != (j, 3):
            raise DimensionError("skeleton fields disagree about joint count")
        if self.parents[0] != -1:
            raise PreprocessingError("joint 0 must be the root (parent -1)")
        for i, p in enumerate(self.parents[1:], start=1):
            if not 0 <= p < i:
                raise PreprocessingError(f"parents must form a tree, joint {i} -> {p}")
        if not np.all(np.isfinite(self.offsets)):
            raise PreprocessingError("non-finite rest offsets")

    @property
    def joint_count(self) -> int:
        return len(self.names)


def default_skeleton() -> Skeleton:
    """The 8-joint desk skeleton used by the synthetic dataset."""
    names = ("root", "l_hip", "r_hip", "chest", "l_wrist", "r_wrist", "l_foot", "r_foot")
    parents = (-1, 0, 0, 0, 3, 3, 1, 2)
    offsets = np.array([
        [0.00, 0.00, 0.00],
        [0.00, 0.00, 0.12],
        [0.00, 0.00, -0.12],
        [0.00, 0.50, 0.00],
        [0.00, -0.10, 0.55],
        [0.00, -0.10, -0.55],
        [0.00, -0.95, 0.00],
        [0.00, -0.95, 0.00],
    ])
    return Skeleton(names, parents, offsets)


@dataclass
class MotionSequence:
    """T frames of J*3 joint positions (meters) at `fps` frames per second."""

    fps: float
    frames: np.ndarray  # [T, J*3]

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise DimensionError("frames must be a [T, J*3] array with T >= 1")
        if self.frames.shape[1] % 3 != 0:
            raise DimensionError("frame width must be a multiple of 3")
        if self.fps <= 0:
            raise DimensionError("fps must be positive")
        if not np.all(np.isfinite(self.frames)):
            raise DimensionError("non-finite joint positions")

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
        raise PreprocessingError("hip axis is parallel to the vertical axis")
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


_HEADER_RE = re.compile(rf"^{MOTION_MAGIC} fps=([0-9.eE+-]+) joints=(\d+)\s*$")


def save_motion(m: MotionSequence, path) -> None:
    lines = [f"{MOTION_MAGIC} fps={m.fps!r} joints={m.joint_count}"]
    for row in m.frames:
        lines.append(" ".join(format(v, ".9f") for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_motion(path) -> MotionSequence:
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty motion file")
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise FormatError(f"{path}: line 1: bad header {lines[0]!r}")
    fps = float(match.group(1))
    joints = int(match.group(2))
    width = joints * 3
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        values = ln.split()
        if len(values) != width:
            raise FormatError(f"{path}: line {i}: expected {width} values, got {len(values)}")
        try:
            rows.append([float(v) for v in values])
        except ValueError as exc:
            raise FormatError(f"{path}: line {i}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no frames")
    return MotionSequence(fps, np.array(rows))
