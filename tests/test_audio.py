import numpy as np
import pytest

from ude.audio import AudioFeatureSequence, load_features, save_features
from ude.errors import FormatError


class TestFeatureFiles:
    def test_round_trip_with_beats(self, tmp_path, rng):
        seq = AudioFeatureSequence(16.0, rng.standard_normal((8, 5)),
                                   beat_times=np.array([0.5, 1.0]))
        save_features(seq, tmp_path / "f.udef")
        back = load_features(tmp_path / "f.udef")
        assert back.frame_rate == 16.0
        assert np.abs(back.features - seq.features).max() < 1e-9
        assert np.allclose(back.beat_times, [0.5, 1.0])

    def test_round_trip_without_beats(self, tmp_path, rng):
        seq = AudioFeatureSequence(16.0, rng.standard_normal((4, 3)))
        save_features(seq, tmp_path / "f.udef")
        assert load_features(tmp_path / "f.udef").beat_times is None

    def test_wrong_width_names_line(self, tmp_path):
        (tmp_path / "bad.udef").write_text("UDEFEAT v1 rate=16.0 dims=3\n1 2\n")
        with pytest.raises(FormatError, match="line 2"):
            load_features(tmp_path / "bad.udef")

    def test_bad_beat_time_names_line(self, tmp_path):
        (tmp_path / "bad.udef").write_text("UDEFEAT v1 rate=16.0 dims=1\n1\nbeats: 0.5 x\n")
        with pytest.raises(FormatError, match="line 3"):
            load_features(tmp_path / "bad.udef")
