"""Command line behavior: formats, generators, file handling, exit codes."""

import csv
import io
import math
import os
import stat
import subprocess
import sys
import wave

import numpy as np
import pytest

from fourierkit import (GaborAtom, QuadratureSpec, Spectrum, bin_to_frequency, config, dft,
                        fft, gabor_atom_eval, gabor_atom_spectrum, ifft, sample,
                        series_coefficients, series_synthesize, sinc_reconstruct, stft, wvd)
from fourierkit import cli
from fourierkit.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


# ---------------------------------------------------------------------------
# transform command
# ---------------------------------------------------------------------------

def test_transform_of_generated_sine(capsys):
    code, out, _ = run(["transform", "--gen", "sine", "--f", "1", "--fs", "8",
                        "--n", "8"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["bin", "freq_hz", "re", "im", "mag", "phase"]
    assert rows.shape == (8, 6)
    # compare against the library on the same generated waveform
    w = sample(lambda t: math.sin(2.0 * math.pi * t), 1.0 / 8.0, 8)
    bins = fft(w).bins
    assert np.max(np.abs(rows[:, 2] + 1j * rows[:, 3] - bins)) <= 1e-12
    assert rows[1, 1] == 1.0  # bin 1 sits at 1 Hz


def test_transform_output_is_deterministic(capsys):
    argv = ["transform", "--gen", "chirp", "--f0", "1", "--f1", "4",
            "--fs", "32", "--n", "64"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_transform_methods_agree(capsys):
    base = ["transform", "--gen", "square", "--f", "2", "--fs", "16", "--n", "24"]
    _, out_fast, _ = run(base + ["--method", "fft"], capsys)
    _, out_direct, _ = run(base + ["--method", "dft"], capsys)
    _, fast = parse_csv(out_fast)
    _, direct = parse_csv(out_direct)
    assert np.max(np.abs(fast[:, 2:4] - direct[:, 2:4])) <= 1e-9


def test_transform_inverse_round_trip_through_files(tmp_path, capsys):
    wave_csv = tmp_path / "wave.csv"
    spec_csv = tmp_path / "spec.csv"
    back_csv = tmp_path / "back.csv"
    gen = ["--gen", "sine", "--f", "3", "--fs", "32", "--n", "32"]
    assert main(["sample"] + gen + ["-o", str(wave_csv)]) == 0
    assert main(["transform"] + gen + ["-o", str(spec_csv)]) == 0
    assert main(["transform", "--inverse", str(spec_csv),
                 "-o", str(back_csv)]) == 0
    capsys.readouterr()
    _, original = parse_csv(wave_csv.read_text(encoding="utf-8"))
    _, recovered = parse_csv(back_csv.read_text(encoding="utf-8"))
    assert np.max(np.abs(recovered[:, 2] - original[:, 2])) <= 1e-9
    assert np.max(np.abs(recovered[:, 3])) <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_transform_inverse_of_short_spectrum_files(tmp_path, capsys, n):
    # at n=2 the second bin is written at -fs/2, so the spacing is |f1 - f0|
    spec_csv = tmp_path / "spec.csv"
    back_csv = tmp_path / "back.csv"
    gen = ["--gen", "sine", "--f", "3", "--fs", "32", "--n", str(n)]
    assert main(["transform"] + gen + ["-o", str(spec_csv)]) == 0
    assert main(["transform", "--inverse", str(spec_csv), "-o", str(back_csv)]) == 0
    capsys.readouterr()
    _, recovered = parse_csv(back_csv.read_text(encoding="utf-8"))
    original = sample(lambda t: math.sin(2.0 * math.pi * 3.0 * t), 1.0 / 32.0, n)
    assert np.array_equal(recovered[:, 1], original.times)
    assert np.max(np.abs(recovered[:, 2] - original.samples.real)) <= 1e-12
    assert np.max(np.abs(recovered[:, 3])) <= 1e-12


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "table.csv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o600)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
    # the third cell cannot be formatted, so the second block raises
    column = np.array([1.0, 2.0, "not a number"], dtype=object)
    with pytest.raises(TypeError):
        cli._write_table(str(target), ["v"], column)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    cli._write_table(str(target), ["v"], np.array([1.0, 2.0, 3.0]))
    assert target.read_text(encoding="utf-8") == "v\n1\n2\n3\n"
    assert target.stat().st_mode & 0o777 == 0o600
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    real = tmp_path / "real.csv"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert main(["sample", "--gen", "dc", "--n", "2", "-o", str(link)]) == 0
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == DC2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


DC2 = "index,time_s,re,im\n0,0,1,0\n1,1,1,0\n"  # sample --gen dc --n 2


def test_output_to_a_fifo_streams_into_it(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open at once
    try:
        assert main(["sample", "--gen", "dc", "--n", "2", "-o", str(fifo)]) == 0
        data = b""
        while chunk := os.read(reader, 65536):
            data += chunk
    finally:
        os.close(reader)
    assert data.decode("utf-8") == DC2
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_output_to_dev_null_leaves_the_device(capsys):
    assert main(["sample", "--gen", "dc", "--n", "2", "-o", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_output_to_a_hard_linked_file_keeps_the_link(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.write_text("old\n", encoding="utf-8")
    other = tmp_path / "other.csv"
    os.link(target, other)
    assert main(["sample", "--gen", "dc", "--n", "2", "-o", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == DC2
    assert other.read_text(encoding="utf-8") == DC2
    assert os.path.samefile(target, other)


def test_output_to_a_read_only_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o444)
    writable = os.access(target, os.W_OK)  # a superuser may write it anyway
    code = main(["sample", "--gen", "dc", "--n", "2", "-o", str(target)])
    if writable:
        assert code == 0
        assert target.read_text(encoding="utf-8") == DC2
    else:
        assert code == 1
        assert target.read_text(encoding="utf-8") == "old\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o444
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


_HUGE = "100000000000000000"


@pytest.mark.parametrize("argv, want", [
    (["transform", "bad.csv", "--fs", "8"], 1),
    (["series", "--gen", "chirp", "--period", "1", "--k", "3"], 2),
    (["sample", "--gen", "sine", "--n", "8"], 2),
    (["reconstruct", "bad.csv", "--fs", "8"], 1),
    (["stft", "--gen", "dc", "--n", "8", "--frame", "16", "--hop", "1"], 1),
    (["wvd", "--gen", "dc", "--n", "7"], 1),
    (["atoms", "--t0", "0", "--f0", "1", "--alpha", "1e200"], 1),
    # counts numpy can size an array by but cannot allocate
    (["sample", "--gen", "dc", "--n", _HUGE], 1),
    (["transform", "--gen", "dc", "--n", _HUGE], 1),
    (["series", "--gen", "sine", "--period", "1", "--k", _HUGE], 1),
    (["series", "--gen", "sine", "--period", "1", "--k", "2", "--synthesize", _HUGE], 1),
    (["atoms", "--t0", "0", "--f0", "1", "--alpha", "2", "--points", _HUGE], 1),
    (["reconstruct", "--gen", "dc", "--n", "4", "--grid", _HUGE], 1),
], ids=["transform", "series", "sample", "reconstruct", "stft", "wvd", "atoms", "huge-sample",
        "huge-transform", "huge-series-k", "huge-series-synthesize", "huge-atoms",
        "huge-reconstruct"])
def test_failed_run_leaves_the_output_untouched(tmp_path, monkeypatch, capsys, argv, want):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("re\n1\nx\n", encoding="utf-8")
    target = tmp_path / "out.csv"
    target.write_text("keep\n", encoding="utf-8")
    # main returns or exits through argparse; any other exception would
    # reach the user as a traceback, and fails the test here
    try:
        code = main(argv + ["-o", "out.csv"])
    except SystemExit as exc:
        code = exc.code
    assert code == want
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert target.read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "out.csv"]


def test_output_file_uses_lf_and_full_precision(tmp_path, capsys):
    out_csv = tmp_path / "spec.csv"
    assert main(["transform", "--gen", "sine", "--f", "1.1", "--fs", "9.7",
                 "--n", "11", "-o", str(out_csv)]) == 0
    capsys.readouterr()
    raw = out_csv.read_bytes()
    assert b"\r" not in raw
    # 17 significant digits reproduce the doubles exactly
    _, rows = parse_csv(out_csv.read_text(encoding="utf-8"))
    w = sample(lambda t: math.sin(2.0 * math.pi * 1.1 * t), 1.0 / 9.7, 11)
    bins = fft(w).bins
    assert np.array_equal(rows[:, 2], bins.real)
    assert np.array_equal(rows[:, 3], bins.imag)


# ---------------------------------------------------------------------------
# series command
# ---------------------------------------------------------------------------

def test_series_square_coefficients(capsys):
    code, out, _ = run(["series", "--gen", "square", "--period", "1",
                        "--k", "9"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "a", "b"]
    assert rows.shape == (10, 3)
    for k in (1, 3, 5, 7, 9):
        assert rows[k, 2] == pytest.approx(4.0 / (math.pi * k), abs=1e-6)
    assert np.max(np.abs(rows[:, 1])) <= 1e-6


def test_series_synthesize_grid(capsys):
    code, out, _ = run(["series", "--gen", "sine", "--period", "2",
                        "--k", "3", "--synthesize", "16"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "value"]
    assert rows.shape == (16, 2)
    want = np.sin(2.0 * np.pi * rows[:, 0] / 2.0)
    assert np.max(np.abs(rows[:, 1] - want)) <= 1e-6


def test_series_warns_on_stderr_when_coefficients_miss_the_tolerance(capsys):
    # 1e-300 can only be met by a grid doubling that changes no bit, and on
    # this map some coefficients keep moving in the last bits
    argv = ["series", "--gen", "sine", "--period", "1", "--k", "3", "--tolerance", "1e-300"]
    code, out, err = run(argv, capsys)
    assert code == 0
    spec = QuadratureSpec(0.0, 1.0, abs_tolerance=1e-300)
    c = series_coefficients(lambda t: math.sin(2.0 * math.pi * t / 1.0), 1.0, 3, spec)
    missed = [i for i, ok in enumerate(c.converged) if not ok]
    assert missed
    rows = [(0, c.a0, 0.0)] + [(m, float(c.cosine[m - 1]), float(c.sine[m - 1]))
                               for m in range(1, 4)]
    assert out == _reference_table(["n", "a", "b"], rows)
    names = ["a0", "a1", "a2", "a3", "b1", "b2", "b3"]
    listed = ", ".join(names[i] for i in missed[:5]) + (", ..." if len(missed) > 5 else "")
    assert err == (f"fourierkit: warning: {len(missed)} of 7 coefficients missed "
                   f"tolerance 1e-300 ({listed})\n")

    code, _, err = run(argv[:-2], capsys)
    assert code == 0 and err == ""


# ---------------------------------------------------------------------------
# sample / reconstruct commands
# ---------------------------------------------------------------------------

def test_sample_writes_generator_values(capsys):
    code, out, _ = run(["sample", "--gen", "sine", "--f", "2", "--fs", "16",
                        "--n", "8"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "time_s", "re", "im"]
    want = np.sin(2.0 * np.pi * 2.0 * rows[:, 1])
    assert np.max(np.abs(rows[:, 2] - want)) <= 1e-12


def test_sample_gabor_generator(capsys):
    code, out, _ = run(["sample", "--gen", "gabor", "--t0", "0.5", "--f0", "4",
                        "--alpha", "6", "--fs", "32", "--n", "32"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    from fourierkit import GaborAtom, gabor_atom_eval
    atom = GaborAtom(0.5, 4.0, 6.0, 0.0)
    want = gabor_atom_eval(atom, rows[:, 1])
    assert np.max(np.abs(rows[:, 2] + 1j * rows[:, 3] - want)) <= 1e-12


def test_reconstruct_dc_record(capsys):
    code, out, _ = run(["reconstruct", "--gen", "dc", "--n", "16",
                        "--taps", "8", "--grid", "33"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "re", "im"]
    assert rows.shape == (33, 3)
    err = np.abs(rows[:, 1] - 1.0)
    # one-sided truncation hurts near the record edges, less in the middle
    assert err.max() <= 0.2
    assert err[11:22].max() <= 0.05


# ---------------------------------------------------------------------------
# time-frequency commands
# ---------------------------------------------------------------------------

def test_stft_table_shape_and_peak(capsys):
    code, out, _ = run(["stft", "--gen", "sine", "--f", "10", "--fs", "64",
                        "--n", "256", "--frame", "64", "--hop", "64",
                        "--window-alpha", "8"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "f", "re", "im"]
    assert rows.shape == (4 * 64, 4)
    mags = np.hypot(rows[:, 2], rows[:, 3])
    # strongest positive-frequency cell sits at 10 Hz in every frame
    for start in range(0, 256, 64):
        frame = rows[start:start + 64]
        feps = frame[np.argmax(mags[start:start + 64]), 1]
        assert abs(feps) == pytest.approx(10.0)


def test_wvd_table(capsys):
    # 0.1875 = 12/64 sits exactly on the doubled-lag bin grid k/(2*32)
    code, out, _ = run(["wvd", "--gen", "sine", "--f", "0.1875", "--fs", "1",
                        "--n", "64"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "f", "value"]
    lags = 32
    assert rows.shape[0] == (64 - 2 * (lags // 2 - 1)) * lags
    peak = rows[np.argmax(rows[:, 2])]
    assert peak[1] == pytest.approx(0.1875, abs=1e-12)


def test_atoms_tables(capsys):
    code, out, _ = run(["atoms", "--t0", "0.5", "--f0", "4", "--alpha", "6",
                        "--points", "41"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows.shape == (41, 3)
    peak_t = rows[np.argmax(np.hypot(rows[:, 1], rows[:, 2])), 0]
    assert peak_t == pytest.approx(0.5, abs=1e-12)

    code, out, _ = run(["atoms", "--t0", "0.5", "--f0", "4", "--alpha", "6",
                        "--domain", "freq", "--points", "41"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    peak_f = rows[np.argmax(np.hypot(rows[:, 1], rows[:, 2])), 0]
    assert peak_f == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# file input
# ---------------------------------------------------------------------------

def _write_wav(path, rate, pcm, channels=1, width=2):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(rate)
        fh.writeframes(pcm.astype("<i2").tobytes())


def test_wav_input(tmp_path, capsys):
    t = np.arange(64) / 8000.0
    pcm = np.round(0.5 * 32767 * np.sin(2.0 * np.pi * 1000.0 * t)).astype(np.int16)
    wav = tmp_path / "tone.wav"
    _write_wav(wav, 8000, pcm)
    code, out, _ = run(["transform", str(wav)], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows.shape == (64, 6)
    # the 1 kHz line lands in bin 8 of 64 at Fs 8000
    assert np.argmax(rows[:32, 4]) == 8


def test_wav_input_rejects_stereo(tmp_path, capsys):
    pcm = np.zeros(32, dtype=np.int16)
    wav = tmp_path / "stereo.wav"
    _write_wav(wav, 8000, pcm, channels=2)
    code, _, err = run(["transform", str(wav)], capsys)
    assert code == 1
    assert "mono" in err


def test_waveform_csv_with_time_column(tmp_path, capsys):
    src = tmp_path / "wave.csv"
    src.write_text("time_s,re\n0.0,1.0\n0.25,0.0\n0.5,-1.0\n0.75,0.0\n",
                   encoding="utf-8")
    code, out, _ = run(["transform", str(src), "--method", "dft"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[:, 2] == pytest.approx([0.0, 2.0, 0.0, 2.0], abs=1e-12)
    assert rows[1, 1] == pytest.approx(1.0)  # 4 samples at 4 Hz: 1 Hz spacing


def test_waveform_csv_needs_rate_or_time(tmp_path, capsys):
    src = tmp_path / "wave.csv"
    src.write_text("re\n1.0\n2.0\n", encoding="utf-8")
    code, _, err = run(["transform", str(src)], capsys)
    assert code == 1
    assert "--fs" in err
    code, out, _ = run(["transform", str(src), "--fs", "2"], capsys)
    assert code == 0


@pytest.mark.parametrize("content", [
    "",                          # empty file
    "re\n",                      # header only
    "re\n1.0\nnot-a-number\n",   # non-numeric cell
    "re,im\n1.0\n",              # ragged row
    "value\n1.0\n",              # wrong column name
    "re\n1.0\nnan\n",            # non-finite sample
    "re,im\n1.0,0.0\n2.0,inf\n",  # non-finite imaginary part
    "time_s,re\n0.0,1.0\n0.25,0.0\n0.75,-1.0\n",  # non-uniform time steps
])
def test_bad_csv_input_exits_one(tmp_path, capsys, content):
    src = tmp_path / "bad.csv"
    src.write_text(content, encoding="utf-8")
    code, _, err = run(["transform", str(src), "--fs", "1"], capsys)
    assert code == 1
    assert err.startswith("fourierkit: error:")


def test_waveform_csv_with_large_time_offset(tmp_path, capsys):
    # epoch seconds at 1 kHz: the steps differ by the rounding of 1.7e9, ~2.4e-7 s
    times = 1.7e9 + np.arange(8) * 1e-3
    src = tmp_path / "wave.csv"
    src.write_text("time_s,re\n" + "".join(f"{t:.17g},1.0\n" for t in times),
                   encoding="utf-8")
    assert np.ptp(np.diff(times)) > 1e-6 * 1e-3
    code, out, _ = run(["transform", str(src)], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[1, 1] == pytest.approx(1000.0 / 8, rel=1e-3)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_sets_default_method(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "kit.conf"
    cfg.write_text("fft_strategy=dft\n", encoding="utf-8")
    argv = ["transform", "--gen", "impulse", "--n", "12"]
    monkeypatch.setenv(config.CONFIG_ENV_VAR, str(cfg))
    _, with_config, _ = run(argv, capsys)
    monkeypatch.delenv(config.CONFIG_ENV_VAR)
    _, explicit, _ = run(argv + ["--method", "dft"], capsys)
    assert with_config == explicit


def test_config_quad_tolerance_applies_to_series(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "kit.conf"
    cfg.write_text("quad_tolerance = 1e-4  # loose\n", encoding="utf-8")
    monkeypatch.setenv(config.CONFIG_ENV_VAR, str(cfg))
    code, out, _ = run(["series", "--gen", "sine", "--period", "1", "--k", "2"],
                       capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[1, 2] == pytest.approx(1.0, abs=1e-4)


def test_config_unknown_key_fails_cleanly(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "kit.conf"
    cfg.write_text("speed=11\n", encoding="utf-8")
    monkeypatch.setenv(config.CONFIG_ENV_VAR, str(cfg))
    code, _, err = run(["transform", "--gen", "dc", "--n", "4"], capsys)
    assert code == 1
    assert "speed" in err


def test_config_malformed_line_fails_cleanly(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "kit.conf"
    cfg.write_text("fft_strategy\n", encoding="utf-8")
    monkeypatch.setenv(config.CONFIG_ENV_VAR, str(cfg))
    code, _, err = run(["transform", "--gen", "dc", "--n", "4"], capsys)
    assert code == 1
    assert "expected key=value" in err


# ---------------------------------------------------------------------------
# argument errors and process-level behavior
# ---------------------------------------------------------------------------

def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrogram"])
    assert exc.value.code == 2


def test_generator_missing_frequency_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--gen", "sine", "--n", "8"])
    assert exc.value.code == 2


def test_transform_without_input_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform"])
    assert exc.value.code == 2


def test_series_rejects_unsupported_generator(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--gen", "chirp", "--period", "1", "--k", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["stft", "--gen", "dc", "--hop", "0", "--frame", "8"],
    ["stft", "--gen", "dc", "--hop", "4", "--frame", "0"],
    ["sample", "--gen", "dc", "--n", "0"],
    ["sample", "--gen", "dc", "--n", "-3"],
    ["sample", "--gen", "dc", "--fs", "0"],
    ["sample", "--gen", "dc", "--fs", "nan"],
    ["reconstruct", "--gen", "dc", "--grid", "0"],
    ["reconstruct", "--gen", "dc", "--taps", "0"],
    ["atoms", "--t0", "0", "--f0", "1", "--alpha", "2", "--points", "0"],
    ["series", "--gen", "sine", "--period", "1", "--k", "2", "--synthesize", "0"],
    ["series", "--gen", "sine", "--period", "0", "--k", "2"],
    ["series", "--gen", "sine", "--period", "1", "--k", "-1"],
    ["series", "--gen", "sine", "--period", "1", "--k", "2", "--tolerance", "0"],
    ["atoms", "--t0", "0", "--f0", "1", "--alpha", "0"],
    ["sample", "--gen", "gabor", "--t0", "0", "--f0", "1", "--alpha", "-2"],
    ["stft", "--gen", "dc", "--hop", "4", "--frame", "8", "--window-alpha", "-1"],
    ["stft", "--gen", "dc", "--hop", "4", "--frame", "8", "--window-alpha", "nan"],
    ["atoms", "--t0", "0", "--f0", "nan", "--alpha", "2"],
    ["atoms", "--t0", "inf", "--f0", "1", "--alpha", "2"],
    ["sample", "--gen", "sine", "--f", "nan"],
    ["sample", "--gen", "sine", "--f", "1", "--phase", "inf"],
    ["sample", "--gen", "chirp", "--f0", "0", "--f1", "inf"],
])
def test_non_positive_count_or_rate_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["atoms", "--t0", "0", "--f0", "1", "--alpha", "1e200"],
    ["sample", "--gen", "gabor", "--t0", "0", "--f0", "1", "--alpha", "1e-200"],
    ["stft", "--gen", "dc", "--hop", "4", "--frame", "8", "--window-alpha", "1e200"],
])
def test_gaussian_width_whose_square_overflows_exits_one(capsys, argv):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("fourierkit: error: ") and "alpha^2" in err


@pytest.mark.parametrize("argv, flag, value", [
    (["sample", "--gen", "sine", "--f", "5"], "--phase", "-1e-3"),
    (["atoms", "--f0", "1", "--alpha", "2", "--points", "9"], "--t0", "-2.5e-1"),
    (["sample", "--gen", "chirp", "--f0", "3", "--fs", "500"], "--f1", "-1E2"),
])
def test_negative_values_with_an_exponent_are_values_not_flags(capsys, argv, flag, value):
    # the CLI's own tables write values such as -2.5e-05: after a flag they are its value
    code, out, _ = run(argv + [flag, value], capsys)
    assert code == 0
    assert run(argv + [f"{flag}={value}"], capsys) == (0, out, "")


def test_module_entry_point_is_deterministic(tmp_path):
    argv = [sys.executable, "-m", "fourierkit", "sample", "--gen", "square",
            "--f", "3", "--fs", "24", "--n", "48"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") == 49


# ---------------------------------------------------------------------------
# reference bytes: every table equals the per-row csv.writer rendering
# ---------------------------------------------------------------------------

def _reference_table(header, rows):
    """The row-by-row renderer the tables are pinned to: csv.writer, 17 digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.17g" % v if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


def _chirp(f0, f1, fs, n):
    rate = (f1 - f0) / (2.0 * (n / fs))
    return sample(lambda t: math.cos(2.0 * math.pi * (f0 * t + rate * t * t)), 1.0 / fs, n)


CHIRP = ["--gen", "chirp", "--f0", "3", "--f1", "190", "--fs", "500"]


def _spectrum_rows(s):
    n = len(s)
    fs = s.bin_spacing * n
    return [(k, bin_to_frequency(k, n, fs), v.real, v.imag, abs(v), math.atan2(v.imag, v.real))
            for k, v in enumerate(s.bins)]


def _transform_case(method):
    def case(tmp_path):
        w = _chirp(3.0, 190.0, 500.0, 4096)
        s = fft(w) if method == "fft" else dft(w)
        return (["transform", *CHIRP, "--n", "4096", "--method", method],
                ["bin", "freq_hz", "re", "im", "mag", "phase"], _spectrum_rows(s))
    return case


def _inverse_case(tmp_path):
    spec_csv = tmp_path / "spec.csv"
    assert main(["transform", *CHIRP, "--n", "1000", "-o", str(spec_csv)]) == 0
    _, table = parse_csv(spec_csv.read_text(encoding="utf-8"))
    w = ifft(Spectrum(table[:, 2] + 1j * table[:, 3], float(table[1, 1] - table[0, 1])))
    rows = [(i, i * w.sample_interval, v.real, v.imag) for i, v in enumerate(w.samples)]
    return ["transform", "--inverse", str(spec_csv)], ["index", "time_s", "re", "im"], rows


def _sample_case(tmp_path):
    w = _chirp(3.0, 190.0, 500.0, 3000)
    rows = [(i, w.start_time + i * w.sample_interval, v.real, v.imag)
            for i, v in enumerate(w.samples)]
    return ["sample", *CHIRP, "--n", "3000"], ["index", "time_s", "re", "im"], rows


def _reconstruct_case(tmp_path):
    w = sample(lambda t: math.sin(2.0 * math.pi * 1.3 * t), 1.0 / 7.0, 50)
    ts = w.start_time + np.linspace(0.0, w.sample_interval * (len(w) - 1), 101)
    vals = [sinc_reconstruct(w, float(t), 12) for t in ts]
    rows = [(float(t), v.real, v.imag) for t, v in zip(ts, vals)]
    return (["reconstruct", "--gen", "sine", "--f", "1.3", "--fs", "7", "--n", "50",
             "--taps", "12", "--grid", "101"], ["t", "re", "im"], rows)


def _square(t):
    u = (t / 1.5) % 1.0
    return 0.0 if u in (0.0, 0.5) else (1.0 if u < 0.5 else -1.0)


def _series_case(tmp_path):
    spec = QuadratureSpec(0.0, 1.5, abs_tolerance=config.QUADRATURE_TOLERANCE)
    c = series_coefficients(_square, 1.5, 12, spec)
    rows = [(0, c.a0, 0.0)] + [(m, float(c.cosine[m - 1]), float(c.sine[m - 1]))
                               for m in range(1, c.harmonics + 1)]
    return ["series", "--gen", "square", "--period", "1.5", "--k", "12"], ["n", "a", "b"], rows


def _synthesize_case(tmp_path):
    spec = QuadratureSpec(0.0, 1.5, abs_tolerance=config.QUADRATURE_TOLERANCE)
    c = series_coefficients(_square, 1.5, 12, spec)
    ts = np.linspace(0.0, 1.5, 300, endpoint=False)
    rows = [(float(t), float(v)) for t, v in zip(ts, series_synthesize(c, ts))]
    return (["series", "--gen", "square", "--period", "1.5", "--k", "12", "--synthesize", "300"],
            ["t", "value"], rows)


def _stft_case(tmp_path):
    d = stft(_chirp(3.0, 190.0, 500.0, 1024), 8.0, 16, 100)
    rows = [(float(t), float(f), d.values[i, j].real, d.values[i, j].imag)
            for i, t in enumerate(d.time_axis) for j, f in enumerate(d.freq_axis)]
    return (["stft", *CHIRP, "--n", "1024", "--frame", "100", "--hop", "16",
             "--window-alpha", "8"], ["t", "f", "re", "im"], rows)


def _wvd_case(tmp_path):
    d = wvd(_chirp(3.0, 190.0, 500.0, 128))
    rows = [(float(t), float(f), float(d.values[i, j]))
            for i, t in enumerate(d.time_axis) for j, f in enumerate(d.freq_axis)]
    return ["wvd", *CHIRP, "--n", "128"], ["t", "f", "value"], rows


def _atoms_case(domain):
    def case(tmp_path):
        atom = GaborAtom(0.25, 3.5, 5.0, 0.7)
        if domain == "time":
            xs = np.linspace(atom.t0 - 5.0 / atom.alpha, atom.t0 + 5.0 / atom.alpha, 199)
            vals = [gabor_atom_eval(atom, float(x)) for x in xs]
        else:
            span = 5.0 * atom.alpha / math.pi
            xs = np.linspace(atom.f0 - span, atom.f0 + span, 199)
            vals = [gabor_atom_spectrum(atom, float(x)) for x in xs]
        rows = [(float(x), v.real, v.imag) for x, v in zip(xs, vals)]
        return (["atoms", "--t0", "0.25", "--f0", "3.5", "--alpha", "5", "--phase", "0.7",
                 "--points", "199", "--domain", domain],
                ["t" if domain == "time" else "f", "re", "im"], rows)
    return case


@pytest.mark.parametrize("case", [
    _transform_case("fft"), _transform_case("dft"), _inverse_case, _sample_case,
    _reconstruct_case, _series_case, _synthesize_case, _stft_case, _wvd_case,
    _atoms_case("time"), _atoms_case("freq"),
], ids=["transform-fft", "transform-dft", "inverse", "sample", "reconstruct", "series",
        "synthesize", "stft", "wvd", "atoms-time", "atoms-freq"])
def test_tables_match_reference_bytes(tmp_path, capsys, case):
    argv, header, rows = case(tmp_path)
    capsys.readouterr()
    code, out, _ = run(argv, capsys)
    assert code == 0
    # compare line by line: a diff of two multi-megabyte strings takes pytest minutes
    got = out.splitlines(keepends=True)
    want = _reference_table(header, rows).splitlines(keepends=True)
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"line {bad + 1}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)
