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

from .errors import DataError
from .fileio import atomic_write, format_matrix, parse_matrix, read_text

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
            raise DataError("skeleton fields disagree about joint count")
        if self.parents[0] != -1:
            raise DataError("joint 0 must be the root (parent -1)")
        for i, p in enumerate(self.parents[1:], start=1):
            if not 0 <= p < i:
                raise DataError(f"parents must form a tree, joint {i} -> {p}")
        if not np.all(np.isfinite(self.offsets)):
            raise DataError("non-finite rest offsets")

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


_HEADER_RE = re.compile(rf"^{MOTION_MAGIC} fps=(\d+\.?\d*(?:[eE][+-]?\d+)?) joints=(\d+)\s*$")


def save_motion(m: MotionSequence, path) -> None:
    """Write `m` as a UDEMOTION file: the header, then one line of ".9f"
    decimals per frame, byte for byte what formatting each value alone gives."""
    header = f"{MOTION_MAGIC} fps={m.fps!r} joints={m.joint_count}\n"
    atomic_write(path, (header + format_matrix(m.frames)).encode())


def load_motion(path) -> MotionSequence:
    """Read a UDEMOTION file. The frames are parsed in one numpy call that
    accepts exactly the values `float()` does and gives the same floats; a
    file it rejects is rescanned line by line, so the DataError names the
    first bad line."""
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty motion file")
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise DataError(f"{path}: line 1: bad header {lines[0]!r}")
    fps = float(match.group(1))
    width = int(match.group(2)) * 3
    frames = parse_matrix(lines[1:], width)
    if frames is None:
        frames = _parse_rows(path, lines[1:], width)
    return MotionSequence(fps, frames)


def _parse_rows(path, lines, width: int) -> np.ndarray:
    """The frame lines parsed value by value, raising at the first bad line."""
    rows = []
    for i, ln in enumerate(lines, start=2):
        values = ln.split()
        if len(values) != width:
            raise DataError(f"{path}: line {i}: expected {width} values, got {len(values)}")
        try:
            rows.append([float(v) for v in values])
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no frames")
    return np.array(rows)
