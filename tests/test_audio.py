import numpy as np
import pytest

from ude.audio import AudioFeatureSequence, load_features, save_features
from ude.errors import DataError


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
        with pytest.raises(DataError, match="line 2"):
            load_features(tmp_path / "bad.udef")

    def test_bad_beat_time_names_line(self, tmp_path):
        (tmp_path / "bad.udef").write_text("UDEFEAT v1 rate=16.0 dims=1\n1\nbeats: 0.5 x\n")
        with pytest.raises(DataError, match="line 3"):
            load_features(tmp_path / "bad.udef")

    @pytest.mark.parametrize("text", [
        "UDEFEAT v1 rate=16.0 dims=2\n1 nan\n",
        "UDEFEAT v1 rate=16.0 dims=2\n1 2\n-inf 2\n",
        "UDEFEAT v1 rate=16.0 dims=1\n1\nbeats: 0.5 inf\n",
    ], ids=["nan-value", "infinite-value", "infinite-beat"])
    def test_non_finite_values_are_rejected(self, tmp_path, text):
        (tmp_path / "bad.udef").write_text(text)
        with pytest.raises(DataError, match="non-finite"):
            load_features(tmp_path / "bad.udef")

    @pytest.mark.parametrize("rate", [0.0, -16.0, float("nan"), float("inf")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(DataError, match="finite and positive"):
            AudioFeatureSequence(rate, np.zeros((2, 3)))

    @pytest.mark.parametrize("rate", ["1e999", "..", "1e-", "-16", "nan"])
    def test_a_rate_that_is_not_a_finite_positive_decimal_is_rejected(self, tmp_path, rate):
        (tmp_path / "bad.udef").write_text(f"UDEFEAT v1 rate={rate} dims=1\n1\n")
        with pytest.raises(DataError):
            load_features(tmp_path / "bad.udef")
