"""Video source tests: PPM parsing, raw RGB24 validation, synthetic generator."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from edgevad import pipeline, sources
from edgevad.sources import SourceError, load_video_source, synthesize
from edgevad.videopre import RawVideo

from helpers import tiny_cfg, write_file_source


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


def fromfile_calls(monkeypatch):
    """A list that gets the (path, offset) of every np.fromfile call from now on."""
    calls, real = [], np.fromfile

    def counted(path, *args, **kw):
        calls.append((path, kw.get("offset", 0)))
        return real(path, *args, **kw)

    monkeypatch.setattr(np, "fromfile", counted)
    return calls


@pytest.mark.parametrize("kind", ["ppm_dir", "raw_rgb24"])
class TestLazyFrames:
    def test_load_and_startup_read_no_pixels(self, kind, tmp_path, monkeypatch):
        spec = write_file_source(kind, small_video(n=64, h=40, w=48), tmp_path)
        calls = fromfile_calls(monkeypatch)
        video = load_video_source(spec)
        assert video.frame_hw == (40, 48) and video.frame_count == 64
        cfg = tiny_cfg()
        cfg.source = spec
        got = pipeline._startup(cfg)
        assert got[0].frame_hw == (40, 48) and got[-1] == (256, 307)
        assert calls == []
        video.frames[5]
        assert len(calls) == 1

    def test_sequence_indexing(self, kind, tmp_path):
        written = small_video(n=5, seed=3)
        frames = load_video_source(write_file_source(kind, written, tmp_path)).frames
        assert isinstance(frames, sources.FileFrames) and frames.shape == (5, 10, 12, 3)
        np.testing.assert_array_equal(frames[-1], written.frames[4])
        np.testing.assert_array_equal(frames[np.int64(2)], written.frames[2])
        with pytest.raises(IndexError):
            frames[5]
        with pytest.raises(TypeError):
            frames[1:3]
        assert len(list(frames)) == 5

    def test_short_read_names_file_and_offset(self, kind, tmp_path):
        video = load_video_source(write_file_source(kind, small_video(n=4), tmp_path))
        path, offset = video.frames._files[2]
        os.truncate(path, offset + 100)
        with pytest.raises(SourceError, match=rf"{path.name}: truncated pixel data at byte offset {offset + 100}: "
                                              rf"expected 360 bytes from byte offset {offset}, read 100"):
            video.frames[2]

    def test_deleted_file_raises_on_read(self, kind, tmp_path):
        video = load_video_source(write_file_source(kind, small_video(n=4), tmp_path))
        path = video.frames._files[1][0]
        path.unlink()
        with pytest.raises(FileNotFoundError, match=path.name):
            video.frames[1]

    def test_load_peak_flat_in_frame_count(self, kind, tmp_path):
        # the load holds an index entry per frame, not the frame: a 90x120 frame is 31.6 KiB
        peaks = []
        for n in (16, 128):
            written = small_video(n=n, h=90, w=120, seed=n)
            spec = write_file_source(kind, written, tmp_path / str(n))
            tracemalloc.start()
            try:
                video = load_video_source(spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            for a, b in zip(video.frames, written.frames, strict=True):
                assert a.dtype == np.uint8 and a.tobytes() == b.tobytes()
        assert peaks[1] - peaks[0] < (128 - 16) * 1024, peaks  # under 1 KiB per frame


class TestPpmHeader:
    @pytest.mark.parametrize("extra", [-10, 0, 1, 3 * sources.PPM_HEADER_CHUNK])
    def test_comment_past_the_first_chunk(self, tmp_path, extra):
        d = tmp_path / "frames"
        d.mkdir()
        comment = b"# " + b"c" * (sources.PPM_HEADER_CHUNK + extra) + b"\n"
        pixels = bytes(range(12))
        (d / "frame_0.ppm").write_bytes(b"P6\n" + comment + b"2 # w\n2\n" + comment + b"255\n" + pixels)
        video = sources.load_ppm_dir(d)
        assert video.frames[0].tobytes() == pixels

    @pytest.mark.parametrize("data, phrase", [
        (b"", "truncated PPM header at byte offset 0"),
        (b"P6\n2 2\n255", "truncated PPM header at byte offset 10"),
        (b"P6\n2 2 # no end of line", "truncated PPM header"),
        (b"P6\n2 -2\n255\n" + b"\x00" * 12, "malformed PPM header at byte offset 5: b'-2'"),
        (b"P6\n2 x2\n255\n" + b"\x00" * 12, "malformed PPM header at byte offset 5"),
        (b"P6\n0 2\n255\n", "PPM dimensions 0x2"),
        (b"P6\n2 2\n65535\n" + b"\x00" * 24, "only maxval 255"),
        (b"JFIF\x00\x01 binary", "not a P6 PPM"),
    ], ids=["empty", "ends-at-maxval", "open-comment", "negative", "not-a-number", "zero", "maxval", "magic"])
    def test_bad_header_rejected_at_load(self, tmp_path, data, phrase):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "frame_7.ppm").write_bytes(data)
        with pytest.raises(SourceError, match=f"frame_7.ppm: {phrase}"):
            sources.load_ppm_dir(d)


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
