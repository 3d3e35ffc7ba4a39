import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ude.dataset import JOINT_NAMES, JOINT_OFFSETS, JOINT_PARENTS
from ude.errors import DataError
from ude.motion import MotionSequence, load_motion, normalize_heading, save_motion


def _rest_pose_motion(t=5, fps=16.0):
    pose = np.zeros((len(JOINT_NAMES), 3))
    for j, parent in enumerate(JOINT_PARENTS):
        pose[j] = (pose[parent] if parent >= 0 else np.array([0.0, 1.0, 0.0])) + JOINT_OFFSETS[j]
    frames = np.tile(pose.reshape(1, -1), (t, 1))
    return MotionSequence(fps, frames)


def _rotate_y(m: MotionSequence, theta: float, dx=0.0, dz=0.0) -> MotionSequence:
    pos = m.positions().copy()
    c, s = np.cos(theta), np.sin(theta)
    x, z = pos[:, :, 0].copy(), pos[:, :, 2].copy()
    pos[:, :, 0] = c * x + s * z + dx
    pos[:, :, 2] = -s * x + c * z + dz
    return MotionSequence(m.fps, pos.reshape(m.length, -1))


def _bone_lengths(m):
    """Per-frame length of each non-root joint's bone of the synthetic
    skeleton, [T, J-1]."""
    pos = m.positions()
    return np.linalg.norm(pos[:, 1:] - pos[:, list(JOINT_PARENTS[1:])], axis=-1)


def _pairwise(m: MotionSequence) -> np.ndarray:
    pos = m.positions()
    diff = pos[:, :, None, :] - pos[:, None, :, :]
    return np.linalg.norm(diff, axis=-1)


class TestNormalizeHeading:
    def test_canonical_is_fixed_point(self):
        m = _rest_pose_motion()
        out = normalize_heading(m)
        assert np.abs(out.frames - m.frames).max() < 1e-9

    def test_inverts_known_rotation(self):
        m = _rest_pose_motion()
        rotated = _rotate_y(m, np.pi / 2, dx=2.0, dz=-1.0)
        out = normalize_heading(rotated)
        assert np.abs(out.frames - m.frames).max() < 1e-9

    def test_preserves_pairwise_distances(self, rng):
        m = _rest_pose_motion()
        rotated = _rotate_y(m, 1.234, dx=0.7, dz=0.3)
        out = normalize_heading(rotated)
        assert np.abs(_pairwise(out) - _pairwise(rotated)).max() < 1e-9

    @given(st.floats(-np.pi, np.pi), st.floats(-3, 3), st.floats(-3, 3))
    def test_idempotent(self, theta, dx, dz):
        m = _rotate_y(_rest_pose_motion(), theta, dx=dx, dz=dz)
        once = normalize_heading(m)
        twice = normalize_heading(once)
        assert np.abs(once.frames - twice.frames).max() < 1e-9

    def test_preserves_frame_displacements(self, rng):
        base = _rest_pose_motion(t=8)
        frames = base.frames + rng.normal(0, 0.05, base.frames.shape)
        m = _rotate_y(MotionSequence(base.fps, frames), 0.9, dx=1.0)
        out = normalize_heading(m)
        d_in = np.linalg.norm(np.diff(m.positions(), axis=0), axis=-1)
        d_out = np.linalg.norm(np.diff(out.positions(), axis=0), axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9

    def test_degenerate_hip_axis_rejected(self):
        m = _rest_pose_motion()
        pos = m.positions().copy()
        # stack both hips vertically above the root
        pos[0, 1] = pos[0, 0] + np.array([0.0, 0.1, 0.0])
        pos[0, 2] = pos[0, 0] + np.array([0.0, -0.1, 0.0])
        broken = MotionSequence(m.fps, pos.reshape(m.length, -1))
        with pytest.raises(DataError, match="hip axis"):
            normalize_heading(broken)


class TestMotionFiles:
    def test_round_trip(self, tmp_path, rng):
        m = MotionSequence(23.5, rng.standard_normal((7, 24)))
        path = tmp_path / "m.udem"
        save_motion(m, path)
        back = load_motion(path)
        assert back.fps == m.fps
        assert np.abs(back.frames - m.frames).max() < 1e-9

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "bad.udem"
        path.write_text("UDEMOTION v1 fps=16.0 joints=2\n1 2 3 4 5\n")
        with pytest.raises(DataError, match="line 2"):
            load_motion(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.udem"
        path.write_text("MOTION 1.0\n")
        with pytest.raises(DataError, match="line 1"):
            load_motion(path)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "bad.udem"
        path.write_bytes(b"\xff\xfe\x00\x81" * 16)
        with pytest.raises(DataError, match="not a UTF-8 text file"):
            load_motion(path)

    @pytest.mark.parametrize("fps", ["0.0", "1e999", "..", "1e-", "-16"])
    def test_fps_that_is_not_a_finite_positive_decimal_is_rejected(self, tmp_path, fps):
        path = tmp_path / "bad.udem"
        path.write_text(f"UDEMOTION v1 fps={fps} joints=1\n1 2 3\n")
        with pytest.raises(DataError):
            load_motion(path)

    @pytest.mark.parametrize("fps", [0.0, float("nan"), float("inf")])
    def test_fps_must_be_finite_and_positive(self, fps):
        with pytest.raises(DataError, match="finite and positive"):
            MotionSequence(fps, np.zeros((2, 6)))

    def test_fps_preserved_exactly(self, tmp_path):
        m = MotionSequence(23.976000000000003, np.zeros((2, 6)))
        save_motion(m, tmp_path / "m.udem")
        assert load_motion(tmp_path / "m.udem").fps == 23.976000000000003


class TestSkeleton:
    # the synthetic skeleton is a dataset constant; normalize_heading reads
    # joints 1 and 2 as its hips
    def test_default_is_a_tree(self):
        assert len(JOINT_NAMES) == len(JOINT_PARENTS) == 8
        assert JOINT_OFFSETS.shape == (8, 3) and np.isfinite(JOINT_OFFSETS).all()
        assert JOINT_PARENTS[0] == -1
        assert all(0 <= p < j for j, p in enumerate(JOINT_PARENTS) if j)
        assert JOINT_NAMES[1:3] == ("l_hip", "r_hip")

    def test_bone_lengths_of_rest_pose(self):
        m = _rest_pose_motion()
        lengths = _bone_lengths(m)
        expected = np.linalg.norm(JOINT_OFFSETS[1:], axis=-1)
        assert np.allclose(lengths, np.tile(expected, (m.length, 1)))
