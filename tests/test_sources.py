"""Video source tests: PPM parsing, raw RGB24 validation, synthetic generator."""

import json
import tracemalloc

import numpy as np
import pytest

from edgevad import sources
from edgevad.sources import SourceError, load_video_source, synthesize
from edgevad.videopre import RawVideo


def small_video(n=4, h=10, w=12, seed=0):
    rng = np.random.default_rng(seed)
    return RawVideo(
        frames=[rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8) for _ in range(n)],
        fps=25.0,
        source_id="test",
    )


class TestPpm:
    def test_round_trip(self, tmp_path):
        video = small_video()
        sources.write_ppm_dir(video, tmp_path / "frames")
        loaded = load_video_source({"kind": "ppm_dir", "path": str(tmp_path / "frames"), "fps": 25.0})
        assert loaded.frame_count == 4
        for a, b in zip(loaded.frames, video.frames):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "frame_0.ppm").write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(SourceError, match="P6"):
            sources.load_ppm_dir(d)

    def test_truncated_pixels_name_offset(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "frame_0.ppm").write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(SourceError, match="byte offset"):
            sources.load_ppm_dir(d)

    def test_mismatched_frame_dims_rejected(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "frame_0.ppm").write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        (d / "frame_1.ppm").write_bytes(b"P6\n3 2\n255\n" + b"\x00" * 18)
        with pytest.raises(SourceError, match="dimensions"):
            sources.load_ppm_dir(d)

    def test_comments_in_header(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "frame_0.ppm").write_bytes(b"P6\n# a comment\n2 2\n255\n" + b"\x01" * 12)
        video = sources.load_ppm_dir(d)
        assert video.frames[0].shape == (2, 2, 3)


class TestRawRgb24:
    def test_exact_size_loads(self, tmp_path):
        w, h, n = 320, 240, 100
        path = tmp_path / "clip.rgb"
        path.write_bytes(b"\x07" * (w * h * 3 * n))
        (tmp_path / "clip.json").write_text(json.dumps({"width": w, "height": h, "fps": 30, "frame_count": n}))
        video = load_video_source({"kind": "raw_rgb24", "path": str(path)})
        assert video.frame_count == 100
        assert video.frames[0].shape == (240, 320, 3)

    def test_truncated_names_expected_vs_actual(self, tmp_path):
        path = tmp_path / "clip.rgb"
        path.write_bytes(b"\x00" * 100)
        (tmp_path / "clip.json").write_text(json.dumps({"width": 4, "height": 4, "frame_count": 3}))
        with pytest.raises(SourceError, match="expected 144 bytes, got 100"):
            sources.load_raw_rgb24(path)

    def test_missing_sidecar_key(self, tmp_path):
        path = tmp_path / "clip.rgb"
        path.write_bytes(b"")
        (tmp_path / "clip.json").write_text(json.dumps({"width": 4}))
        with pytest.raises(SourceError, match="height"):
            sources.load_raw_rgb24(path)

    def test_write_read_round_trip(self, tmp_path):
        video = small_video(n=3, seed=1)
        sources.write_raw_rgb24(video, tmp_path / "v.rgb")
        loaded = sources.load_raw_rgb24(tmp_path / "v.rgb")
        for a, b in zip(loaded.frames, video.frames):
            np.testing.assert_array_equal(a, b)

    def test_load_holds_the_video_once(self, tmp_path):
        # one read into one array: the load's peak stays near the file size
        video = small_video(n=40, h=90, w=120, seed=2)
        sources.write_raw_rgb24(video, tmp_path / "v.rgb")
        size = (tmp_path / "v.rgb").stat().st_size
        tracemalloc.start()
        try:
            loaded = sources.load_raw_rgb24(tmp_path / "v.rgb")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * size
        for a, b in zip(loaded.frames, video.frames):
            np.testing.assert_array_equal(a, b)


class TestSynthetic:
    def test_seed_deterministic(self):
        spec = {"kind": "synthetic", "pattern": "noise", "frames": 6, "width": 16, "height": 12, "seed": 3}
        a = load_video_source(spec)
        b = load_video_source(spec)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)

    @pytest.mark.parametrize("pattern", ["noise", "gradient", "moving_square", "constant"])
    def test_anomaly_delta_only_inside_window(self, pattern):
        base_spec = {"pattern": pattern, "frames": 12, "width": 24, "height": 20, "seed": 5}
        plain = synthesize(base_spec)
        planted = synthesize({**base_spec, "anomaly": {"start": 4, "end": 8, "strength": 90}})
        for i in range(12):
            delta = np.abs(np.asarray(planted.frames[i], float) - np.asarray(plain.frames[i], float)).max()
            if 4 <= i < 8:
                assert delta > 0, f"frame {i} should carry the anomaly"
            else:
                assert delta == 0, f"frame {i} should be untouched"

    def test_constant_pattern_value(self):
        video = synthesize({"pattern": "constant", "value": 114.75, "frames": 2, "width": 8, "height": 8})
        np.testing.assert_array_equal(video.frames[0], np.full((8, 8, 3), 114.75, np.float32))

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SourceError, match="pattern"):
            synthesize({"pattern": "plasma", "frames": 2})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SourceError, match="kind"):
            load_video_source({"kind": "webcam"})
