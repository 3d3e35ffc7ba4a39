"""The one-call writers and readers of the motion and feature files against
plain per-value references kept here: the same bytes written, the same
values accepted and the same floats read, bit for bit, and the same
DataError for every file they reject."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ude.audio import FEATURE_MAGIC, AudioFeatureSequence, load_features, save_features
from ude.errors import DataError
from ude.motion import MOTION_MAGIC, MotionSequence, load_motion, save_motion


# -- per-value references ------------------------------------------------------------


def _reference_motion_bytes(m: MotionSequence) -> bytes:
    lines = [f"{MOTION_MAGIC} fps={m.fps!r} joints={m.joint_count}"]
    for row in m.frames:
        lines.append(" ".join(format(v, ".9f") for v in row))
    return ("\n".join(lines) + "\n").encode()


def _reference_feature_bytes(seq: AudioFeatureSequence) -> bytes:
    lines = [f"{FEATURE_MAGIC} rate={seq.frame_rate!r} dims={seq.dim}"]
    for row in seq.features:
        lines.append(" ".join(format(v, ".9f") for v in row))
    if seq.beat_times is not None:
        lines.append("beats: " + " ".join(format(t, ".9f") for t in seq.beat_times))
    return ("\n".join(lines) + "\n").encode()


def _reference_body(path, width: int, beats_allowed: bool) -> tuple:
    """(rows, beats) of a motion or feature file read value by value; the
    header is taken as valid, and the first bad line raises DataError."""
    lines = [ln for ln in open(path, encoding="utf-8").read().splitlines() if ln.strip()]
    rows, beats = [], None
    for i, ln in enumerate(lines[1:], start=2):
        is_beats = beats_allowed and ln.startswith("beats:")
        values = ln.removeprefix("beats:").split() if is_beats else ln.split()
        if not is_beats and len(values) != width:
            raise DataError(f"{path}: line {i}: expected {width} values, got {len(values)}")
        try:
            numbers = [float(v) for v in values]
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
        if is_beats:
            beats = np.array(numbers)
        else:
            rows.append(numbers)
    if not rows:
        raise DataError(f"{path}: {'no feature rows' if beats_allowed else 'no frames'}")
    return np.array(rows), beats


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


# -- writing -------------------------------------------------------------------------

# -0.0, the largest magnitudes, a value that rounds to the last decimal, and
# values on both sides of the 9-decimal rounding boundary
EDGES = [0.0, -0.0, 1e300, -1e300, 5e-10, -5e-10, 4.9999999999e-10, 1.0000000005,
         -1.0000000005, 2.5e-9, 0.1234567885, 123456.0000000015, 1e-300, 5e-324,
         np.nextafter(5e-10, 1.0), np.nextafter(5e-10, 0.0), 0.5, 1e16 + 2.0]


def _edge_matrix(width: int, rng) -> np.ndarray:
    values = np.concatenate([EDGES, rng.standard_normal(3 * width) * 10.0 ** rng.integers(
        -12, 12, 3 * width)])
    values = np.resize(values, (len(values) + width - 1) // width * width)
    return values.reshape(-1, width)


@pytest.mark.parametrize("width", [3, 24])
def test_motion_bytes_match_the_per_value_writer(tmp_path, rng, width):
    m = MotionSequence(23.976000000000003, _edge_matrix(width, rng))
    save_motion(m, tmp_path / "m.udem")
    assert (tmp_path / "m.udem").read_bytes() == _reference_motion_bytes(m)


@pytest.mark.parametrize("width", [1, 16, 24])
@pytest.mark.parametrize("beats", [None, [], [0.5, -0.0, 5e-10, 1e300]])
def test_feature_bytes_match_the_per_value_writer(tmp_path, rng, width, beats):
    seq = AudioFeatureSequence(16.0, _edge_matrix(width, rng), beats)
    save_features(seq, tmp_path / "f.udef")
    assert (tmp_path / "f.udef").read_bytes() == _reference_feature_bytes(seq)


def test_a_feature_file_with_no_rows_is_written_as_before(tmp_path):
    seq = AudioFeatureSequence(16.0, np.zeros((0, 4)), np.array([0.5]))
    save_features(seq, tmp_path / "f.udef")
    assert (tmp_path / "f.udef").read_bytes() == _reference_feature_bytes(seq)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.sampled_from([3, 6, 24])),
              elements=finite))
def test_random_motions_write_and_read_as_the_references_do(tmp_path_factory, frames):
    path = tmp_path_factory.mktemp("motion") / "m.udem"
    m = MotionSequence(16.0, frames)
    save_motion(m, path)
    assert path.read_bytes() == _reference_motion_bytes(m)
    rows, _ = _reference_body(path, frames.shape[1], beats_allowed=False)
    assert _bits(load_motion(path).frames) == _bits(rows)


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.sampled_from([1, 4, 16])),
              elements=finite),
       st.none() | st.lists(finite, max_size=5))
def test_random_features_write_and_read_as_the_references_do(tmp_path_factory, features, beats):
    path = tmp_path_factory.mktemp("features") / "f.udef"
    seq = AudioFeatureSequence(16.0, features, beats)
    save_features(seq, path)
    assert path.read_bytes() == _reference_feature_bytes(seq)
    rows, want_beats = _reference_body(path, features.shape[1], beats_allowed=True)
    got = load_features(path)
    assert _bits(got.features) == _bits(rows)
    if beats is None:
        assert got.beat_times is None and want_beats is None
    else:
        assert _bits(got.beat_times) == _bits(want_beats)


# -- reading -------------------------------------------------------------------------

# tokens that float() accepts beyond what the writer emits
TOKENS = ["1_000", "+1e3", "-0.0", "1e-400", "1E5", ".5", "5.", "١٢٣",
          "１２", "١.٥", "0.30000000000000004", "1.7976931348623157e308",
          "5e-324", "-2.5e-9", "0.1234567885", "12345678901234567890"]


def _motion_text(rows) -> str:
    return f"{MOTION_MAGIC} fps=16.0 joints=1\n" + "".join(" ".join(r) + "\n" for r in rows)


def test_motion_values_read_bit_equal_to_float(tmp_path):
    rows = [TOKENS[i:i + 3] for i in range(0, len(TOKENS) - 2)]
    path = tmp_path / "m.udem"
    path.write_text(_motion_text(rows) + "  \n\t1   2\t3  \n", encoding="utf-8")
    want, _ = _reference_body(path, 3, beats_allowed=False)
    assert _bits(load_motion(path).frames) == _bits(want)


def test_feature_values_and_beats_read_bit_equal_to_float(tmp_path):
    body = "".join(" ".join(TOKENS[i:i + 4]) + "\n" for i in range(0, len(TOKENS) - 3))
    path = tmp_path / "f.udef"
    path.write_text(f"{FEATURE_MAGIC} rate=16.0 dims=4\nbeats: 9 9\n{body}"
                    f"beats:{' '.join(TOKENS[:5])}\n", encoding="utf-8")
    want, beats = _reference_body(path, 4, beats_allowed=True)
    got = load_features(path)
    assert _bits(got.features) == _bits(want)
    assert _bits(got.beat_times) == _bits(beats)  # the last beats line counts


def _error(load, path, *reference_args) -> tuple:
    """The messages of the DataError that the loader and the reference raise."""
    with pytest.raises(DataError) as got:
        load(path)
    with pytest.raises(DataError) as want:
        _reference_body(path, *reference_args)
    return str(got.value), str(want.value)


@pytest.mark.parametrize("body", [
    "1 2 3\n1 2\n",                 # a short row
    "1 2 3\n1 2 3 4\n",             # a long row
    "1 2 x\n1 2\n",                 # a bad value before a short row
    "1 2 3\n1 2\n1 2 x\n",          # a short row before a bad value
    "1 2 3\n1 2 0x10\n",
    "1 2 3\n1__0 2 3\n",
    "\n\n1 2 3\n\n1 2 3 4\n",       # blank lines are not counted
    "",
    "1 2 3\nbeats: 0.5\n",           # only feature files take beats lines
    "1 2 3\nbeats: 0.5 1\n",         # ... even one of the frame width
], ids=["short", "long", "value-then-width", "width-then-value", "hex", "double-underscore",
        "blank-lines", "no-frames", "beats-line", "beats-line-of-frame-width"])
def test_motion_errors_match_the_reference(tmp_path, body):
    path = tmp_path / "m.udem"
    path.write_text(f"{MOTION_MAGIC} fps=16.0 joints=1\n{body}")
    got, want = _error(load_motion, path, 3, False)
    assert got == want


@pytest.mark.parametrize("body", [
    "1 2\n3\n",
    "1 2\nbeats: 0.5 x\n1\n",       # a bad beats line before a short row
    "1 x\nbeats: 0.5 x\n",          # a bad value before a bad beats line
    "beats: 0.5\n",                 # beats but no rows
    "beats: y\n",                   # a bad beats line and no rows
    "1 2\nbeats:0.5 1e\n",
], ids=["short", "beats-then-row", "row-then-beats", "no-rows", "bad-beats-no-rows",
        "bad-beat-exponent"])
def test_feature_errors_match_the_reference(tmp_path, body):
    path = tmp_path / "f.udef"
    path.write_text(f"{FEATURE_MAGIC} rate=16.0 dims=2\n{body}")
    got, want = _error(load_features, path, 2, True)
    assert got == want


@pytest.mark.parametrize("load, text, message", [
    (load_features, f"{FEATURE_MAGIC} rate=1e999 dims=2\n1 2\n",
     "frame rate must be finite and positive, got inf"),
    (load_motion, f"{MOTION_MAGIC} fps=0 joints=1\n1 2 3\n",
     "fps must be finite and positive, got 0.0"),
    (load_motion, f"{MOTION_MAGIC} fps=16.0 joints=1\n1 2 1e999\n",
     "non-finite joint positions"),
    (load_features, f"{FEATURE_MAGIC} rate=16.0 dims=2\n1 1e999\n",
     "non-finite feature values"),
], ids=["feature-rate-infinite", "motion-fps-zero", "motion-value-infinite",
        "feature-value-infinite"])
def test_a_value_error_names_the_file(tmp_path, load, text, message):
    # every line parses, so the record's own check rejects the values
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError) as got:
        load(path)
    assert str(got.value) == f"{path}: {message}"
