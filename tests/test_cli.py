"""Command-line surfaces: vad, denoise, eval subcommands."""

import json
import warnings

import numpy as np
import pytest

from rvad import FrameLabels, read_labels, read_wav, score, write_labels, write_wav
from rvad.cli import main

from synth import FS, utterance, white_noise


@pytest.fixture
def tone_wav(tmp_path):
    p = tmp_path / "tone.wav"
    write_wav(p, utterance([(0.6, 1.0, 160.0)], 2.5))
    return p


def _run(argv):
    return main([str(a) for a in argv])


class TestVadCommand:
    def test_single_wav_frames_output(self, tmp_path, tone_wav):
        out = tmp_path / "out"
        rc = _run(["vad", "--in", tone_wav, "--out", out, "--enhance", "none"])
        assert rc == 0
        labels = read_labels(out / "tone.vad")
        assert len(labels) > 0
        assert labels.labels.any()

    def test_list_input_and_workers(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"u{i}.wav"
            write_wav(p, utterance([(0.4, 0.8, 140.0 + 20 * i)], 2.0))
            paths.append(p)
        lst = tmp_path / "files.list"
        lst.write_text("".join(f"{p}\n" for p in paths))
        out = tmp_path / "out"
        rc = _run(["vad", "--in", lst, "--out", out, "--workers", "2", "--enhance", "none"])
        assert rc == 0
        for i in range(3):
            assert (out / f"u{i}.vad").exists()

    def test_segment_label_format(self, tmp_path, tone_wav):
        out = tmp_path / "out"
        rc = _run(["vad", "--in", tone_wav, "--out", out, "--labels", "segments", "--enhance", "none"])
        assert rc == 0
        text = (out / "tone.vad").read_text().strip()
        assert text, "expected at least one speech segment"
        start, end = map(float, text.splitlines()[0].split())
        assert 0.0 <= start < end

    def test_frames_and_segments_agree(self, tmp_path, tone_wav):
        out_f = tmp_path / "frames"
        out_s = tmp_path / "segments"
        _run(["vad", "--in", tone_wav, "--out", out_f, "--enhance", "none"])
        _run(["vad", "--in", tone_wav, "--out", out_s, "--labels", "segments", "--enhance", "none"])
        frames = read_labels(out_f / "tone.vad").labels
        segs = read_labels(out_s / "tone.vad").labels
        np.testing.assert_array_equal(segs, frames[: len(segs)])
        assert not frames[len(segs) :].any()

    def test_voicing_file_override(self, tmp_path, tone_wav):
        out = tmp_path / "out"
        _run(["vad", "--in", tone_wav, "--out", out, "--enhance", "none"])
        n = len(read_labels(out / "tone.vad"))
        mask_file = tmp_path / "voicing.txt"
        write_labels(mask_file, FrameLabels(np.zeros(n, dtype=bool)))
        out2 = tmp_path / "out2"
        rc = _run(["vad", "--in", tone_wav, "--out", out2, "--voicing-file", mask_file, "--enhance", "none"])
        assert rc == 0
        assert not read_labels(out2 / "tone.vad").labels.any()

    @pytest.mark.parametrize(
        "segments, voiced",
        [("0.600000 1.000000\n", [(60, 100)]), ("0.600000 1.000000\n2.000000 3.000000\n", [(60, 100), (200, 248)])],
        ids=["padded", "cut"],
    )
    def test_segments_voicing_file_takes_the_input_frames(self, tmp_path, tone_wav, segments, voiced):
        # the 2.5 s input has 248 frames; a segments file has no frame count
        # of its own, so it is padded with unvoiced frames or cut to them
        # and gives the labels of the frame-format file of the same mask
        seg_file, frame_file = tmp_path / "voicing.seg", tmp_path / "voicing.frames"
        seg_file.write_text(segments)
        mask = np.zeros(248, dtype=bool)
        for lo, hi in voiced:
            mask[lo:hi] = True
        write_labels(frame_file, FrameLabels(mask))
        for name, path in (("seg", seg_file), ("frames", frame_file)):
            rc = _run(["vad", "--in", tone_wav, "--out", tmp_path / name, "--voicing-file", path, "--enhance", "none"])
            assert rc == 0
        labels = read_labels(tmp_path / "seg" / "tone.vad").labels
        assert len(labels) == 248 and labels.any()
        np.testing.assert_array_equal(labels, read_labels(tmp_path / "frames" / "tone.vad").labels)

    def test_short_frame_voicing_file_fails_the_file(self, tmp_path, tone_wav, capsys):
        mask_file = tmp_path / "voicing.txt"
        write_labels(mask_file, FrameLabels(np.ones(100, dtype=bool)))
        rc = _run(["vad", "--in", tone_wav, "--out", tmp_path / "o", "--voicing-file", mask_file])
        assert rc == 1
        assert "voicing mask has 100 frames, expected 248" in capsys.readouterr().err

    def test_voicing_file_needs_single_input(self, tmp_path, tone_wav):
        lst = tmp_path / "files.list"
        lst.write_text(f"{tone_wav}\n{tone_wav}\n")
        with pytest.raises(SystemExit) as exc:
            _run(["vad", "--in", lst, "--out", tmp_path / "o", "--voicing-file", tmp_path / "v"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [None, "0\n1\nmaybe\n", "0.5 0.2\n"], ids=["missing", "frames", "segments"])
    def test_unreadable_voicing_file_is_usage_error(self, tmp_path, tone_wav, capsys, content):
        mask_file = tmp_path / "voicing.txt"
        if content is not None:
            mask_file.write_text(content)
        with pytest.raises(SystemExit) as exc:
            _run(["vad", "--in", tone_wav, "--out", tmp_path / "o", "--voicing-file", mask_file])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "cannot read --voicing-file" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["vad", "denoise"])
    def test_inputs_sharing_a_stem_are_usage_error(self, tmp_path, command):
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "x.wav")
            write_wav(paths[-1], utterance([(0.4, 0.8, 150.0)], 2.0))
        lst = tmp_path / "files.list"
        lst.write_text("".join(f"{p}\n" for p in paths))
        with pytest.raises(SystemExit) as exc:
            _run([command, "--in", lst, "--out", tmp_path / "o", "--enhance", "none"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["vad", "denoise"])
    def test_same_input_twice_is_allowed(self, tmp_path, tone_wav, command):
        lst = tmp_path / "files.list"
        lst.write_text(f"{tone_wav}\n{tmp_path}/./tone.wav\n")
        assert _run([command, "--in", lst, "--out", tmp_path / "o", "--enhance", "none"]) == 0
        assert len(list((tmp_path / "o").iterdir())) == 1

    def test_beta_flag_changes_output(self, tmp_path):
        p = tmp_path / "u.wav"
        write_wav(p, utterance([(0.5, 1.0, 150.0)], 2.5, noise_rms=0.02, rng=np.random.default_rng(90)))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        _run(["vad", "--in", p, "--out", out_a, "--beta", "0.1", "--enhance", "none"])
        _run(["vad", "--in", p, "--out", out_b, "--beta", "0.7", "--enhance", "none"])
        a = read_labels(out_a / "u.vad").labels
        b = read_labels(out_b / "u.vad").labels
        assert a.sum() >= b.sum()

    def test_config_file_with_flag_override(self, tmp_path, tone_wav):
        cfgfile = tmp_path / "rvad.cfg"
        cfgfile.write_text("# pipeline knobs\nmode = fast\nbeta = 0.5\npp-near-right = 12\n")
        out = tmp_path / "out"
        rc = _run(["vad", "--in", tone_wav, "--out", out, "--config", cfgfile, "--beta", "0.4", "--enhance", "none"])
        assert rc == 0
        assert (out / "tone.vad").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, tone_wav):
        # a misspelling, and the retired high-energy threshold option under both its spellings
        cfgfile = tmp_path / "bad.cfg"
        for text in ("betta = 0.4\n", "he_threshold_basis = energy\n", "he_threshold = energy\n"):
            cfgfile.write_text(text)
            with pytest.raises(SystemExit) as exc:
                _run(["vad", "--in", tone_wav, "--out", tmp_path / "o", "--config", cfgfile])
            assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_bad_flag_value_is_usage_error(self, tmp_path, tone_wav):
        # a value outside a flag's choices, and the retired high-energy threshold flag
        for argv in (["--mode", "turbo"], ["--he-threshold-basis", "energy"]):
            with pytest.raises(SystemExit) as exc:
                _run(["vad", "--in", tone_wav, "--out", tmp_path / "o", *argv])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--msne-window-frames", "0"),
            ("--msne-smoothing", "1.0"),
            ("--msne-bias", "0.5"),
            ("--frame-len-ms", "5"),
            ("--super-len", "0"),
            ("--pitch-rho", "1.5"),
            ("--pitch-f-min", "500"),
            ("--subtract-floor", "-1"),
            ("--hpf-cutoff-hz", "-10"),
            ("--noise-forget", "2"),
            ("--subtract-floor", "nan"),
            ("--subtract-floor", "inf"),
            ("--msne-bias", "inf"),
            ("--msne-bias", "nan"),
            ("--hpf-cutoff-hz", "nan"),
            ("--lowfreq-cutoff-hz", "nan"),
            ("--lowfreq-cutoff-hz", "-5"),
            ("--frame-len-ms", "inf"),
            ("--pitch-f-max", "inf"),
            ("--beta", "nan"),
            ("--energy-ratio", "nan"),
            ("--energy-ratio", "-0.1"),
        ],
    )
    def test_out_of_range_config_is_usage_error(self, tmp_path, tone_wav, flag, value):
        # both commands build the same config, and neither writes anything
        for command in ("vad", "denoise"):
            with pytest.raises(SystemExit) as exc:
                _run([command, "--in", tone_wav, "--out", tmp_path / "o", flag, value])
            assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["0", "-2", "1.5"])
    def test_workers_below_one_is_usage_error(self, tmp_path, tone_wav, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            _run(["vad", "--in", tone_wav, "--out", tmp_path / "o", "--workers", workers])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()
        assert "rvad vad: error: argument --workers" in capsys.readouterr().err

    def test_corrupt_file_gives_exit_one(self, tmp_path, tone_wav):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"nope")
        lst = tmp_path / "files.list"
        lst.write_text(f"{tone_wav}\n{bad}\n")
        out = tmp_path / "out"
        rc = _run(["vad", "--in", lst, "--out", out, "--enhance", "none"])
        assert rc == 1
        assert (out / "tone.vad").exists()

    def test_frames_too_short_for_the_pitch_search_fail_the_file(self, tmp_path, tone_wav, capsys):
        short = ["--frame-len-ms", "2", "--frame-shift-ms", "2", "--enhance", "none"]
        rc = _run(["vad", "--in", tone_wav, "--out", tmp_path / "o", *short])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"rvad: {tone_wav}: ValueError: frames of 16 samples are too short" in err
        assert "rvad: processed 0/1 file(s)" in err and "Traceback" not in err
        assert _run(["vad", "--in", tone_wav, "--out", tmp_path / "o", *short, "--mode", "fast"]) == 0

    def test_label_write_failure_gives_exit_one(self, tmp_path, tone_wav, capsys):
        other = tmp_path / "other.wav"
        write_wav(other, utterance([(0.4, 0.8, 150.0)], 2.0))
        lst = tmp_path / "files.list"
        lst.write_text(f"{tone_wav}\n{other}\n")
        out = tmp_path / "out"
        (out / "tone.vad").mkdir(parents=True)  # a label file that cannot be written
        rc = _run(["vad", "--in", lst, "--out", out, "--enhance", "none"])
        assert rc == 1
        assert len(read_labels(out / "other.vad")) > 0
        err = capsys.readouterr().err
        assert f"rvad: {tone_wav}: IsADirectoryError" in err or f"rvad: {tone_wav}: PermissionError" in err
        assert "rvad: processed 1/2 file(s)" in err and "Traceback" not in err

    def test_unreadable_input_list_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["vad", "--in", tmp_path / "missing.list", "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()
        assert "cannot read input list" in capsys.readouterr().err


class TestDenoiseCommand:
    def test_writes_wav_and_noise_floor(self, tmp_path):
        p = tmp_path / "noisy.wav"
        clean = utterance([(0.5, 1.0, 170.0)], 2.0)
        noisy = clean.samples + white_noise(2.0, 0.02, FS, np.random.default_rng(91))
        write_wav(p, type(clean)(np.clip(noisy, -1, 1), FS))
        out = tmp_path / "out"
        rc = _run(["denoise", "--in", p, "--out", out, "--enhance", "msne", "--dump-noise-floor"])
        assert rc == 0
        denoised = read_wav(out / "noisy.wav")
        assert len(denoised) > 0
        floor = np.loadtxt(out / "noisy.noisefloor.csv", delimiter=",")
        assert floor.ndim == 2
        assert floor.shape[1] == 129
        assert np.all(floor >= 0)

    def test_dump_requires_enhancement(self, tmp_path, tone_wav):
        with pytest.raises(SystemExit) as exc:
            _run(["denoise", "--in", tone_wav, "--out", tmp_path / "o", "--enhance", "none", "--dump-noise-floor"])
        assert exc.value.code == 2

    def test_enhance_none_still_writes(self, tmp_path, tone_wav):
        out = tmp_path / "out"
        rc = _run(["denoise", "--in", tone_wav, "--out", out, "--enhance", "none"])
        assert rc == 0
        assert (out / "tone.wav").exists()


class TestEvalCommand:
    def _make_label_dirs(self, tmp_path):
        ref_dir = tmp_path / "ref"
        hyp_dir = tmp_path / "hyp"
        ref_dir.mkdir()
        hyp_dir.mkdir()
        rng = np.random.default_rng(92)
        pairs = {}
        for name in ("a", "b"):
            ref = rng.random(200) < 0.5
            hyp = rng.random(200) < 0.5
            write_labels(ref_dir / f"{name}.vad", FrameLabels(ref))
            write_labels(hyp_dir / f"{name}.vad", FrameLabels(hyp))
            pairs[name] = (ref, hyp)
        return ref_dir, hyp_dir, pairs

    def test_csv_report_matches_library_scores(self, tmp_path, capsys):
        ref_dir, hyp_dir, pairs = self._make_label_dirs(tmp_path)
        rc = _run(["eval", "--ref", ref_dir, "--hyp", hyp_dir, "--gamma", "0.25", "--report", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "file,n_frames,p_miss,p_fa,fer,dcf"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"a", "b", "OVERALL"}
        for name, (ref, hyp) in pairs.items():
            expected = score(ref, hyp, 0.25)
            assert float(rows[name][4]) == pytest.approx(expected.fer, abs=1e-3)
            assert float(rows[name][5]) == pytest.approx(expected.dcf, abs=1e-5)

    def test_json_lines_report(self, tmp_path, capsys):
        ref_dir, hyp_dir, _ = self._make_label_dirs(tmp_path)
        rc = _run(["eval", "--ref", ref_dir, "--hyp", hyp_dir, "--report", "json-lines"])
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert rows[-1]["file"] == "OVERALL"
        assert {"file", "n_frames", "p_miss", "p_fa", "fer", "dcf"} <= set(rows[0])

    def test_tsv_report(self, tmp_path, capsys):
        ref_dir, hyp_dir, _ = self._make_label_dirs(tmp_path)
        rc = _run(["eval", "--ref", ref_dir, "--hyp", hyp_dir, "--report", "tsv"])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split("\t") == ["file", "n_frames", "p_miss", "p_fa", "fer", "dcf"]

    def test_list_pairing(self, tmp_path, capsys):
        ref_dir, hyp_dir, _ = self._make_label_dirs(tmp_path)
        ref_list = tmp_path / "ref.list"
        hyp_list = tmp_path / "hyp.list"
        ref_list.write_text(f"{ref_dir}/a.vad\n{ref_dir}/b.vad\n")
        hyp_list.write_text(f"{hyp_dir}/a.vad\n{hyp_dir}/b.vad\n")
        rc = _run(["eval", "--ref", ref_list, "--hyp", hyp_list])
        assert rc == 0

    def test_unpaired_hypothesis_is_usage_error(self, tmp_path):
        ref_dir, hyp_dir, _ = self._make_label_dirs(tmp_path)
        (hyp_dir / "a.vad").unlink()
        with pytest.raises(SystemExit) as exc:
            _run(["eval", "--ref", ref_dir, "--hyp", hyp_dir])
        assert exc.value.code == 2

    @pytest.mark.parametrize("gamma", ["1.5", "-0.1", "nan", "inf"])
    def test_gamma_outside_unit_interval_is_usage_error(self, tmp_path, capsys, gamma):
        ref_dir, hyp_dir, _ = self._make_label_dirs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            _run(["eval", "--ref", ref_dir, "--hyp", hyp_dir, "--gamma", gamma])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "rvad eval: error: argument --gamma" in err and "Traceback" not in err

    @pytest.mark.parametrize("gamma", ["0", "1"])
    def test_gamma_at_interval_ends_is_accepted(self, tmp_path, gamma):
        ref_dir, hyp_dir, _ = self._make_label_dirs(tmp_path)
        assert _run(["eval", "--ref", ref_dir, "--hyp", hyp_dir, "--gamma", gamma]) == 0

    @pytest.mark.parametrize("source", ["directory", "list"])
    def test_empty_reference_is_usage_error(self, tmp_path, capsys, source):
        # as `vad` and `denoise` do on an empty input list, rather than
        # printing a bare header and exiting 0
        _, hyp_dir, _ = self._make_label_dirs(tmp_path)
        ref = tmp_path / "empty"
        if source == "directory":
            ref.mkdir()
        else:
            ref.write_text("# no files\n\n")
        with pytest.raises(SystemExit) as exc:
            _run(["eval", "--ref", ref, "--hyp", hyp_dir])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"reference {ref} names no label files" in err

    def test_unreadable_label_list_is_usage_error(self, tmp_path, capsys):
        ref_dir, hyp_dir, _ = self._make_label_dirs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            _run(["eval", "--ref", tmp_path / "missing.list", "--hyp", hyp_dir])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot read label list" in err

    def _score_segments(self, tmp_path, capsys, ref_text, hyp_text):
        """Exit code, frame count and FER of one ref/hyp pair given as file
        text; a segments file is scored without a length-mismatch warning."""
        for side, text in (("ref", ref_text), ("hyp", hyp_text)):
            (tmp_path / side).mkdir()
            (tmp_path / side / "a.vad").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = _run(["eval", "--ref", tmp_path / "ref", "--hyp", tmp_path / "hyp"])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "a"
        return rc, int(row[1]), float(row[4])

    # a 300-frame reference with speech on frames 50-149 and 200-299
    _REF = np.zeros(300, dtype=bool)
    _REF[50:150] = _REF[200:] = True

    def test_segments_hypothesis_is_scored_over_the_reference_frames(self, tmp_path, capsys):
        ref = "".join("1\n" if v else "0\n" for v in self._REF)
        assert self._score_segments(tmp_path, capsys, ref, "0.500000 1.500000\n") == (0, 300, 33.3333)

    def test_empty_segments_hypothesis_is_all_non_speech(self, tmp_path, capsys):
        ref = "".join("1\n" if v else "0\n" for v in self._REF)
        assert self._score_segments(tmp_path, capsys, ref, "") == (0, 300, 66.6667)

    def test_segments_reference_past_the_hypothesis_frames_is_cut(self, tmp_path, capsys):
        ref = "0.500000 1.500000\n2.000000 3.500000\n"
        assert self._score_segments(tmp_path, capsys, ref, "1\n" * 300) == (0, 300, 33.3333)

    def test_two_segments_files_are_scored_over_the_longer(self, tmp_path, capsys):
        ref = "0.500000 1.500000\n2.000000 3.000000\n"
        assert self._score_segments(tmp_path, capsys, ref, "0.500000 1.500000\n") == (0, 300, 33.3333)

    def test_each_truncated_pair_is_named(self, tmp_path, capsys):
        # two pairs of frame-format files, each 4 reference frames against 3
        for side, text in (("ref", "1\n0\n1\n1\n"), ("hyp", "1\n1\n0\n")):
            (tmp_path / side).mkdir()
            for name in ("a", "b"):
                (tmp_path / side / f"{name}.vad").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = _run(["eval", "--ref", tmp_path / "ref", "--hyp", tmp_path / "hyp"])
        assert rc == 0
        out, err = capsys.readouterr()
        lines = [line for line in err.splitlines() if "mismatch" in line]
        assert lines == [f"rvad: {name}: label length mismatch (4 vs 3); truncating to 3 frames" for name in "ab"]
        assert [row.split(",")[:2] for row in out.splitlines()[1:]] == [["a", "3"], ["b", "3"], ["OVERALL", "6"]]

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            _run([])
        assert exc.value.code == 2


class TestEndToEnd:
    def test_vad_then_eval_on_synthetic_truth(self, tmp_path, capsys):
        from synth import reference_labels

        bursts = [(0.5, 1.0, 150.0)]
        p = tmp_path / "utt.wav"
        write_wav(p, utterance(bursts, 2.5))
        out = tmp_path / "hyp"
        assert _run(["vad", "--in", p, "--out", out, "--enhance", "none"]) == 0

        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        truth = reference_labels(bursts, 2.5)
        write_labels(ref_dir / "utt.vad", FrameLabels(truth))

        rc = _run(["eval", "--ref", ref_dir, "--hyp", out, "--report", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        overall = [l for l in lines if l.startswith("OVERALL")][0]
        fer = float(overall.split(",")[4])
        assert fer < 50.0  # detection clearly better than chance on clean tone
