"""End-to-end tests of the command line interface."""

import argparse
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from mimolink import cli, numerics, sim
from mimolink.cli import build_parser, main
from mimolink.fading import MAX_VALIDATION_SAMPLES
from _support import parse_csv

TINY = ["--max-frames", "20", "--target-errors", "3", "--frame-bits", "12"]


def _read(path) -> str:
    return path.read_text()


def test_fer_vs_gain_writes_csv(tmp_path):
    out = tmp_path / "fer.csv"
    rc = main(
        ["fer-vs-gain", "--gain-db", "-8:4:0", "--out", str(out), *TINY]
    )
    assert rc == 0
    meta, rows = parse_csv(_read(out))
    assert meta["experiment"] == "fer_vs_gain"
    assert [r["x"] for r in rows] == [-8.0, -4.0, 0.0]
    assert all(r["frames"] <= 20 for r in rows)


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fer-vs-gain", "--gain-db", "-6,-4", "--seed", "5", *TINY]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_is_invisible_in_output(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    args = ["fer-vs-gain", "--gain-db", "-6,-4", "--max-frames", "600",
            "--target-errors", "40", "--frame-bits", "12"]
    assert main([*args, "--workers", "1", "--out", str(a)]) == 0
    assert main([*args, "--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["fer-vs-gain", "--gain-db", "-6", "--snr-db", "0", *TINY]
    assert main([*args, "--seed", "1", "--out", str(a)]) == 0
    assert main([*args, "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_fer_vs_doppler(tmp_path):
    out = tmp_path / "dop.csv"
    rc = main(["fer-vs-doppler", "--dopplers", "50,100", "--out", str(out), *TINY])
    assert rc == 0
    meta, rows = parse_csv(_read(out))
    assert meta["experiment"] == "fer_vs_doppler"
    assert [r["x"] for r in rows] == [50.0, 100.0]


def test_fer_vs_samplerate(tmp_path):
    out = tmp_path / "fs.csv"
    rc = main(
        ["fer-vs-samplerate", "--rates", "1e5,1e6", "--out", str(out), *TINY]
    )
    assert rc == 0
    meta, rows = parse_csv(_read(out))
    assert meta["experiment"] == "fer_vs_sample_rate"
    assert [r["x"] for r in rows] == [1e5, 1e6]


def test_ber_vs_snr_each_detector(tmp_path):
    for det in ("zf", "mmse", "ml"):
        out = tmp_path / f"ber_{det}.csv"
        rc = main(
            ["ber-vs-snr", "--detector", det, "--snr-db", "0,10",
             "--frame-bits", "16", "--max-frames", "20", "--target-errors", "3",
             "--out", str(out)]
        )
        assert rc == 0
        meta, rows = parse_csv(_read(out))
        assert meta["detector"] == det
        assert meta["code"] == "none"
        assert len(rows) == 2


def test_alternate_code_and_geometry(tmp_path):
    out = tmp_path / "g2.csv"
    rc = main(
        ["fer-vs-gain", "--code", "2x1", "--nr", "1", "--gain-db", "-4",
         "--out", str(out), *TINY]
    )
    assert rc == 0
    meta, _ = parse_csv(_read(out))
    assert meta["code"] == "2x1"
    assert meta["n_tx"] == "2" and meta["n_rx"] == "1"


def test_correlation_levels_accepted(tmp_path):
    for level in ("none", "medium", "0.3"):
        out = tmp_path / f"corr_{level}.csv"
        rc = main(
            ["fer-vs-gain", "--correlation", level, "--gain-db", "-4",
             "--out", str(out), *TINY]
        )
        assert rc == 0


def test_plot_script_contents(tmp_path):
    out = tmp_path / "fer.csv"
    plot = tmp_path / "fer.gp"
    rc = main(
        ["fer-vs-gain", "--gain-db", "-6,-4", "--plot-script", str(plot),
         "--out", str(out), *TINY]
    )
    assert rc == 0
    text = _read(plot)
    assert "set logscale y" in text
    assert str(out) in text
    assert "using 1:4" in text  # FER column with CI columns alongside


# The gnuplot script that --plot-script writes for each subcommand, byte
# for byte, with {csv} standing for the --out path.
PLOT_SCRIPTS = {
    "fer-vs-gain": (
        "set datafile separator ','\n"
        "set datafile commentschars '#'\n"
        "set xlabel 'path gain (dB)'\n"
        "set ylabel 'frame error rate'\n"
        "set logscale y\n"
        "set grid\n"
        "set key left bottom\n"
        "plot '{csv}' using 1:4 with linespoints title 'frame error rate', \\\n"
        "     '' using 1:5 with lines dashtype 2 title '95% lo', \\\n"
        "     '' using 1:6 with lines dashtype 2 title '95% hi'\n"
        "pause -1\n"
    ),
    "fer-vs-doppler": (
        "set datafile separator ','\n"
        "set datafile commentschars '#'\n"
        "set xlabel 'max Doppler (Hz)'\n"
        "set ylabel 'frame error rate'\n"
        "set logscale y\n"
        "set grid\n"
        "set key left bottom\n"
        "plot '{csv}' using 1:4 with linespoints title 'frame error rate', \\\n"
        "     '' using 1:5 with lines dashtype 2 title '95% lo', \\\n"
        "     '' using 1:6 with lines dashtype 2 title '95% hi'\n"
        "pause -1\n"
    ),
    "fer-vs-samplerate": (
        "set datafile separator ','\n"
        "set datafile commentschars '#'\n"
        "set xlabel 'sample rate (Hz)'\n"
        "set ylabel 'frame error rate'\n"
        "set logscale y\n"
        "set grid\n"
        "set key left bottom\n"
        "set logscale x\n"
        "plot '{csv}' using 1:4 with linespoints title 'frame error rate', \\\n"
        "     '' using 1:5 with lines dashtype 2 title '95% lo', \\\n"
        "     '' using 1:6 with lines dashtype 2 title '95% hi'\n"
        "pause -1\n"
    ),
    "ber-vs-snr": (
        "set datafile separator ','\n"
        "set datafile commentschars '#'\n"
        "set xlabel 'SNR (dB)'\n"
        "set ylabel 'bit error rate'\n"
        "set logscale y\n"
        "set grid\n"
        "set key left bottom\n"
        "plot '{csv}' using 1:9 with linespoints title 'bit error rate', \\\n"
        "     '' using 1:10 with lines dashtype 2 title '95% lo', \\\n"
        "     '' using 1:11 with lines dashtype 2 title '95% hi'\n"
        "pause -1\n"
    ),
    "validate-fading": (
        "set datafile separator ','\n"
        "set datafile commentschars '#'\n"
        "set xlabel 'lag (s)'\n"
        "set ylabel 'real-part autocorrelation'\n"
        "set grid\n"
        "plot '{csv}' using 1:2 with points title 'empirical', \\\n"
        "     '' using 1:3 with lines title 'theory'\n"
        "pause -1\n"
    ),
}

PLOT_ARGS = {
    "fer-vs-gain": ["--gain-db", "-4", *TINY],
    "fer-vs-doppler": ["--dopplers", "50", *TINY],
    "fer-vs-samplerate": ["--rates", "1e6", *TINY],
    "ber-vs-snr": ["--detector", "zf", "--snr-db", "10", "--frame-bits", "16",
                   "--max-frames", "20", "--target-errors", "3"],
    "validate-fading": ["--samples", "100000"],
}


@pytest.mark.parametrize("command", sorted(PLOT_SCRIPTS))
def test_plot_script_bytes(tmp_path, command):
    out, plot = tmp_path / "out.csv", tmp_path / "out.gp"
    rc = main([command, *PLOT_ARGS[command], "--out", str(out), "--plot-script", str(plot)])
    assert rc == 0
    assert plot.read_bytes() == PLOT_SCRIPTS[command].format(csv=out).encode()


def test_plot_script_quotes_the_csv_path(tmp_path):
    """A quote in the --out path is doubled in the plot script, gnuplot's
    escape inside a single-quoted string."""
    out, plot = tmp_path / "a'b.csv", tmp_path / "out.gp"
    command = "fer-vs-gain"
    rc = main([command, *PLOT_ARGS[command], "--out", str(out), "--plot-script", str(plot)])
    assert rc == 0
    assert plot.read_bytes() == PLOT_SCRIPTS[command].format(csv=f"{tmp_path}/a''b.csv").encode()


def test_validate_fading_csv(tmp_path):
    out = tmp_path / "val.csv"
    rc = main(
        ["validate-fading", "--sample-rate-hz", "256", "--samples", "100000",
         "--out", str(out)]
    )
    assert rc == 0
    text = _read(out)
    assert "# experiment=validate_fading" in text
    assert "# ks_statistic=" in text
    assert "# empirical_mean_power=" in text
    lines = text.strip().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "lag_s,autocorr_empirical,autocorr_theoretical"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) >= 20
    first = data[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)


def test_validate_fading_rician(tmp_path):
    out = tmp_path / "val_rice.csv"
    rc = main(
        ["validate-fading", "--fading", "rician", "--k", "2.0",
         "--sample-rate-hz", "256", "--samples", "100000", "--out", str(out)]
    )
    assert rc == 0
    assert "# k_factor=2" in _read(out)

    # At K = 60 the Rician density's I0 argument passes 100; the exp-scaled
    # evaluation keeps the validation working.
    rc = main(
        ["validate-fading", "--fading", "rician", "--k", "60",
         "--sample-rate-hz", "256", "--samples", "100000", "--out", str(out)]
    )
    assert rc == 0
    meta, _ = parse_csv(_read(out))
    assert float(meta["ks_statistic"]) < 0.02


def test_negative_sweep_values_parse(tmp_path):
    out = tmp_path / "neg.csv"
    rc = main(["fer-vs-gain", "--gain-db", "-8:2:-4", "--out", str(out), *TINY])
    assert rc == 0
    _, rows = parse_csv(_read(out))
    assert [r["x"] for r in rows] == [-8.0, -6.0, -4.0]


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fer-vs-gain"])  # --out is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "--out", "x.csv"])
    assert exc.value.code == 1


def test_sweep_flag_replaces_the_fixed_flag(tmp_path, capsys):
    """A FER subcommand has no fixed flag for the value it sweeps: the
    flag is a usage error, exit 1, and no CSV is written."""
    out = tmp_path / "fixed.csv"
    for argv in (["fer-vs-doppler", "--doppler-hz", "50"], ["fer-vs-samplerate", "--sample-rate-hz", "1e6"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out), *TINY])
        assert exc.value.code == 1
        assert argv[1] in capsys.readouterr().err
        assert not out.exists()


def test_each_experiment_is_one_cli_row_and_one_stream_id():
    """Every Experiment is run by exactly one subcommand, and has its own
    stream-id experiment field, apart from validate-fading's."""
    assert Counter(row[0] for row in cli._EXPERIMENTS.values()) == Counter(sim.Experiment)
    assert set(cli._EXPERIMENTS) | {"validate-fading"} == set(PARSED_DEFAULTS)
    ids = sim.EXPERIMENT_IDS
    assert set(ids) == {e.value for e in sim.Experiment} | {sim.VALIDATE_FADING}
    assert len(set(ids.values())) == len(ids)


def test_invalid_configuration_exits_one(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    rc = main(["ber-vs-snr", "--detector", "zf", "--nr", "9", "--out", str(out)])
    assert rc == 1
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()

    rc = main(["fer-vs-gain", "--frame-bits", "13", "--out", str(out)])
    assert rc == 1

    rc = main(
        ["ber-vs-snr", "--detector", "zf", "--nt", "4", "--nr", "2",
         "--out", str(out)]
    )
    assert rc == 1  # zero forcing needs n_rx >= n_tx

    rc = main(["fer-vs-gain", "--workers", "0", "--out", str(out)])
    assert rc == 1

    rc = main(["validate-fading", "--samples", "99999", "--out", str(out)])
    assert rc == 1

    # Only +inf means noiseless. These SNRs have no finite, positive noise
    # variance, and every frame errors at -40 dB, so a run that started
    # would write a CSV.
    for snr in ("-inf", "nan", "-4000"):
        capsys.readouterr()
        rc = main(["fer-vs-gain", "--gain-db", "-40", f"--snr-db={snr}", "--out", str(out)])
        assert rc == 1
        assert "snr_db" in capsys.readouterr().err
        assert not out.exists()
    rc = main(["ber-vs-snr", "--detector", "zf", "--snr-db=-4000,0", "--out", str(out)])
    assert rc == 1
    assert not out.exists()

    # Trial 2**32 has no stream id. Every frame errors at -40 dB, so a run
    # that started would stop at the error target instead of hanging.
    capsys.readouterr()
    rc = main(["fer-vs-gain", "--gain-db", "-40", "--max-frames", str(2**32 + 1),
               "--out", str(out)])
    assert rc == 1
    assert "max_frames" in capsys.readouterr().err
    assert not out.exists()

    # Non-finite fading parameters, and a negative K. A run that started
    # would synthesise a NaN channel and write a CSV. Rayleigh fading drops
    # K, but rejects a bad one as Rician fading does.
    fer = ["fer-vs-gain", "--code", "2x1", "--nr", "1", "--gain-db", "0", "--max-frames", "20"]
    validate = ["validate-fading", "--samples", "100000"]
    bad_flags = (("--los-phase-rad", "inf"), ("--los-doppler-hz", "nan"), ("--sample-rate-hz", "nan"),
                 ("--k", "nan"), ("--k", "inf"), ("--k", "-3"))
    for flag, bad in bad_flags:
        for command in (fer, validate):
            for fading in ("rician", "rayleigh"):
                capsys.readouterr()
                rc = main([*command, "--fading", fading, f"{flag}={bad}", "--out", str(out)])
                assert rc == 1, (command[0], fading, flag, bad)
                assert flag[2:].replace("-", "_") in capsys.readouterr().err
                assert not out.exists()

    # Path gains past MAX_PATH_GAIN_DB. A run that started would overflow,
    # or meet a zero channel, or score every frame as wiped.
    for gain in ("7000", "-7000", "1000.5"):
        for argv in (["fer-vs-gain", f"--gain-db={gain}", *TINY],
                     ["ber-vs-snr", "--detector", "zf", f"--gain-db={gain}", *TINY]):
            capsys.readouterr()
            assert main([*argv, "--out", str(out)]) == 1
            assert "MAX_PATH_GAIN_DB" in capsys.readouterr().err
            assert not out.exists()


def test_over_bound_inputs_exit_one_before_simulating(tmp_path, monkeypatch, capsys):
    """The inputs that size allocations have upper bounds, checked before
    any simulation: the stubs fail the test if a run starts."""
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(cli, "fading_init", no_run)
    out = tmp_path / "big.csv"
    cases = [
        (["fer-vs-gain", "--code", "2x1", "--frame-bits", "2000000000"], "MAX_TRIAL_ELEMENTS"),
        (["ber-vs-snr", "--detector", "ml", "--frame-bits", "2000000000"], "MAX_TRIAL_ELEMENTS"),
        (["fer-vs-gain", "--num-sinusoids", str(numerics.CHUNK_ELEMENTS + 1)], "num_sinusoids"),
        (["validate-fading", "--num-sinusoids", str(numerics.CHUNK_ELEMENTS + 1)], "num_sinusoids"),
        (["validate-fading", "--samples", str(MAX_VALIDATION_SAMPLES + 1)], "samples"),
    ]
    for argv, bound in cases:
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        assert bound in capsys.readouterr().err
        assert not out.exists()


def test_unusable_output_paths_exit_one_before_simulating(tmp_path, monkeypatch, capsys):
    """--out and --plot-script must name a writable file in an existing
    directory, for every subcommand; the stubs fail the test if a run
    starts."""
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(cli, "fading_init", no_run)
    out = tmp_path / "ok.csv"
    missing = str(tmp_path / "missing" / "x.csv")
    bad_paths = [
        (["--out", missing], "--out"),
        (["--out", str(tmp_path)], "--out"),
        (["--out", str(out), "--plot-script", missing], "--plot-script"),
        (["--out", str(out), "--plot-script", str(tmp_path)], "--plot-script"),
        # One file for both would keep only the plot script.
        (["--out", str(out), "--plot-script", str(tmp_path / "." / "ok.csv")], "--plot-script"),
        # No file name: empty, or a directory's path with its separator.
        (["--out", ""], "--out"),
        (["--out", str(out) + os.sep], "--out"),
        (["--out", str(out), "--plot-script", ""], "--plot-script"),
        (["--out", str(out), "--plot-script", str(tmp_path / "ok.gp") + os.sep], "--plot-script"),
    ]
    for command, extra in PLOT_ARGS.items():
        for paths, flag in bad_paths:
            capsys.readouterr()
            assert main([command, *extra, *paths]) == 1
            assert flag in capsys.readouterr().err
            assert not out.exists()


def test_validate_fading_runtime_failure_exits_two(tmp_path, monkeypatch, capsys):
    """A failure while validate-fading synthesises and tests its process is
    a runtime failure, exit 2, whatever its type; its inputs, the
    AWGN-limit K among them, are checked before fading_init, exit 1. No
    CSV is written either way."""
    out = tmp_path / "val.csv"
    for exc in (RuntimeError, ValueError):
        def failing(*args, **kwargs):
            raise exc("forced")

        monkeypatch.setattr(cli, "validate_process", failing)
        capsys.readouterr()
        assert main(["validate-fading", "--samples", "100000", "--out", str(out)]) == 2
        assert "runtime failure: forced" in capsys.readouterr().err
        assert not out.exists()

    def no_run(*args, **kwargs):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(cli, "fading_init", no_run)
    assert main(["validate-fading", "--fading", "rician", "--k", "1e9", "--out", str(out)]) == 1
    assert "AWGN-limit K" in capsys.readouterr().err
    assert not out.exists()


def test_bad_sweep_string_exits_one(tmp_path):
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as exc:
        main(["fer-vs-gain", "--gain-db", "0:2:-4", "--out", str(out)])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["fer-vs-gain", "--gain-db", "abc", "--out", str(out)])
    assert exc.value.code == 1
    # An empty sweep is a usage error, not an IndexError traceback.
    with pytest.raises(SystemExit) as exc:
        main(["fer-vs-gain", "--gain-db", ",", "--out", str(out)])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["ber-vs-snr", "--detector", "zf", "--snr-db", ",", "--out", str(out)])
    assert exc.value.code == 1
    assert not out.exists()


def test_sweep_over_the_cap_exits_one(tmp_path, monkeypatch):
    """A sweep may hold at most sim.MAX_SWEEP_POINTS values, as a comma
    list or as a range, whose step count is checked before its values are
    built; nothing runs."""
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("a sweep over the cap ran"))
    out = tmp_path / "cap.csv"
    cap = sim.MAX_SWEEP_POINTS
    for sweep in (",".join(str(i) for i in range(cap + 1)), f"0:1:{cap}", "0:1e-300:1"):
        with pytest.raises(SystemExit) as exc:
            main(["ber-vs-snr", "--detector", "zf", "--snr-db", sweep, "--out", str(out)])
        assert exc.value.code == 1
    assert cli._parse_sweep(",".join(str(i) for i in range(cap))) == tuple(float(i) for i in range(cap))
    assert len(cli._parse_sweep(f"0:1:{cap - 1}")) == cap
    assert not out.exists()


def test_workers_above_cpu_count_exit_one(tmp_path, monkeypatch, capsys):
    """--workers is checked against the CPU count before any pool exists."""
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was built")

    monkeypatch.setattr(sim, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "w.csv"
    rc = main(["fer-vs-gain", "--gain-db", "-4", "--workers", "3", "--out", str(out), *TINY])
    assert rc == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()

    # Two workers on two CPUs is a valid run; it reaches run_experiment.
    seen = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config, workers: seen.append(workers) or sim.run_experiment(config))
    rc = main(["fer-vs-gain", "--gain-db", "-4", "--workers", "2", "--out", str(out), *TINY])
    assert rc == 0
    assert seen == [2]

    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
    assert main(["fer-vs-gain", "--workers", "2", "--out", str(out), *TINY]) == 1


_FADING_OPTIONS = {
    "--fading": ("rayleigh", None), "--k": (4.0, "K"), "--los-doppler-hz": (0.0, "F"),
    "--los-phase-rad": (0.0, "PHI"), "--num-sinusoids": (32, "M"),
}
_FRAME_OPTIONS = {"--frame-bits": (120, "N"), "--max-frames": (100_000, "N"), "--target-errors": (200, "N")}
_FER_OPTIONS = {
    **_FADING_OPTIONS, **_FRAME_OPTIONS, "--nr": (4, "N"), "--code": ((4, Fraction(3, 4)), "NTxRATE"),
    "--correlation": ("low", "LEVEL"), "--snr-db": (10.0, "DB"),
}
_COMMON_OPTIONS = {"--seed": (1, "U64"), "--out": ("x.csv", "PATH.CSV"), "--plot-script": (None, "PATH")}
_RUN_OPTIONS = {**_COMMON_OPTIONS, "--workers": (1, "N")}

# Each subcommand's options: the value it parses to when omitted, and its
# metavar. --detector and --out are required, so the parse passes them.
PARSED_DEFAULTS = {
    "fer-vs-gain": {
        **_FER_OPTIONS, **_RUN_OPTIONS, "--doppler-hz": (100.0, "F"), "--sample-rate-hz": (1e6, "FS"),
        "--gain-db": (tuple(float(v) for v in range(-20, 1, 2)), "SWEEP"),
    },
    "fer-vs-doppler": {
        **_FER_OPTIONS, **_RUN_OPTIONS, "--sample-rate-hz": (1e6, "FS"), "--gain-db": (-5.0, "DB"),
        "--dopplers": ((25.0, 50.0, 100.0), "SWEEP"),
    },
    "fer-vs-samplerate": {
        **_FER_OPTIONS, **_RUN_OPTIONS, "--doppler-hz": (100.0, "F"), "--gain-db": (-5.0, "DB"),
        "--rates": ((1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7), "SWEEP"),
    },
    "ber-vs-snr": {
        **_FRAME_OPTIONS, **_RUN_OPTIONS, "--detector": ("zf", None), "--nt": (4, "N"), "--nr": (4, "N"),
        "--gain-db": (0.0, "DB"), "--snr-db": ((0.0, 4.0, 8.0, 12.0, 16.0, 20.0), "SWEEP"),
    },
    "validate-fading": {
        **_FADING_OPTIONS, **_COMMON_OPTIONS, "--doppler-hz": (100.0, "F"), "--sample-rate-hz": (256.0, "FS"),
        "--samples": (1_000_000, "N"),
    },
}


def test_parser_defaults_line_up_with_help():
    """Every subcommand's option strings, metavars and parsed defaults."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subcommands) == set(PARSED_DEFAULTS)
    for command, expected in PARSED_DEFAULTS.items():
        required = ["--detector", "zf"] if command == "ber-vs-snr" else []
        args = parser.parse_args([command, "--out", "x.csv", *required])
        options = {
            flag: (getattr(args, action.dest), action.metavar)
            for action in subcommands[command]._actions
            for flag in action.option_strings
            if action.dest != "help"
        }
        assert options == expected, command


def test_module_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    # The subprocess imports mimolink from this checkout's src/ too.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mimolink.cli", "fer-vs-gain", "--gain-db", "-4",
         "--out", str(out), *TINY],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert f"wrote {out}" in proc.stdout
    assert out.exists()
