"""Command line front end.

One subcommand per experiment plus a statistical self-check:

    mimolink fer-vs-gain       --gain-db -20:2:0 --out fer_gain.csv
    mimolink fer-vs-doppler    --dopplers 25,50,100 --out fer_doppler.csv
    mimolink fer-vs-samplerate --rates 1e5,2e5,...,1e7 --out fer_rate.csv
    mimolink ber-vs-snr        --detector ml --snr-db 0:4:20 --out ber.csv
    mimolink validate-fading   --fading rayleigh --samples 1000000 --out stats.csv

Sweeps are written either as an inclusive start:step:stop range or as a
comma list. Every run is fully reproducible from --seed; all defaults are
echoed into the CSV header so a result file is self-describing.

SNR convention: snr_db is total transmit symbol energy per channel use over
noise power per receive antenna. The Rician K factor defaults to 4, which is
this simulator's choice, not a measured value; set --k explicitly when it
matters.

Exit codes: 0 success, 1 invalid configuration or usage, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction

from .channel import ChannelSpec, correlation_rho
from .detect import DetectorKind
from .fading import FadingModel, FadingSpec, check_validation_samples, fading_init, validate_process
from .numerics import RngStream
from .sim import (
    VALIDATE_FADING,
    VALIDATE_FADING_STREAM,
    Experiment,
    SimConfig,
    _point_config,
    check_sweep,
    emit_csv,
    fading_pairs,
    render_csv,
    run_experiment,
)

__all__ = ["main", "build_parser"]

_FIGURE6_RATES = "1e5,2e5,5e5,1e6,2e6,5e6,1e7"


class _Parser(argparse.ArgumentParser):
    # The interface reserves exit code 2 for runtime failures, so usage
    # errors exit 1 instead of argparse's default 2. The widened matcher
    # lets values like "-20:2:0" or "-5,-3" follow a flag without being
    # mistaken for option names ("=" still works if this ever changes).
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_sweep(text: str) -> tuple[float, ...]:
    """Parse start:step:stop (inclusive) or a comma list into sweep values,
    which must pass sim.check_sweep."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ValueError("range start, step and stop must be finite")
        if step <= 0:
            raise ValueError("range step must be positive")
        if stop < start:
            raise ValueError("range stop must not precede start")
        steps = (stop - start) / step
        if steps >= 10_000:
            raise ValueError("range must have fewer than 10000 steps")
        values = tuple(start + i * step for i in range(round(steps) + 1))
        if values[-1] > stop + 1e-9 * max(1.0, abs(stop)):
            values = values[:-1]
    else:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    return check_sweep(values)


def _parse_code(text: str) -> tuple[int, Fraction]:
    try:
        nt_str, rate_str = text.lower().split("x", 1)
        return int(nt_str), Fraction(rate_str)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"code must look like 2x1, 4x1/2 or 4x3/4, got {text!r}") from None


def _add_common(p: argparse.ArgumentParser, with_workers: bool = True) -> None:
    p.add_argument("--seed", type=int, default=1, metavar="U64",
                   help="master seed; fixes every random draw (default 1)")
    p.add_argument("--out", required=True, metavar="PATH.CSV",
                   help="output CSV path")
    p.add_argument("--plot-script", metavar="PATH",
                   help="also write a gnuplot script that plots the CSV")
    if with_workers:
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes, at most the CPU count; never changes results (default 1)")


def _add_fading(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fading", choices=["rayleigh", "rician"], default="rayleigh")
    p.add_argument("--k", type=float, default=4.0, metavar="K",
                   help="Rician K factor, linear (simulator default 4; free choice)")
    p.add_argument("--los-doppler-hz", type=float, default=0.0, metavar="F",
                   help="line-of-sight Doppler shift (0 or 100 in the standard runs)")
    p.add_argument("--los-phase-rad", type=float, default=0.0, metavar="PHI")
    p.add_argument("--num-sinusoids", type=int, default=32, metavar="M")


def _add_link(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nr", type=int, default=4, metavar="N")
    p.add_argument("--code", type=_parse_code, default="4x3/4", metavar="NTxRATE",
                   help="OSTBC design: 2x1, 3x1/2, 3x3/4, 4x1/2 or 4x3/4 (default 4x3/4)")
    p.add_argument("--correlation", default="low", metavar="LEVEL",
                   help="spatial correlation: none/low/medium/high or a coefficient in [0,1)")
    p.add_argument("--frame-bits", type=int, default=120, metavar="N")
    p.add_argument("--max-frames", type=int, default=100_000, metavar="N")
    p.add_argument("--target-errors", type=int, default=200, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mimolink", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fer-vs-gain", parents=[], help="frame error rate over a path-gain sweep")
    _add_fading(p)
    _add_link(p)
    p.add_argument("--doppler-hz", type=float, default=100.0, metavar="F")
    p.add_argument("--sample-rate-hz", type=float, default=1e6, metavar="FS")
    p.add_argument("--gain-db", type=_parse_sweep, default="-20:2:0", metavar="SWEEP")
    p.add_argument("--snr-db", type=float, default=10.0, metavar="DB")
    _add_common(p)

    p = sub.add_parser("fer-vs-doppler", help="frame error rate over maximum Doppler values")
    _add_fading(p)
    _add_link(p)
    p.add_argument("--dopplers", type=_parse_sweep, default="25,50,100", metavar="SWEEP")
    p.add_argument("--sample-rate-hz", type=float, default=1e6, metavar="FS")
    p.add_argument("--gain-db", type=float, default=-5.0, metavar="DB")
    p.add_argument("--snr-db", type=float, default=10.0, metavar="DB")
    _add_common(p)

    p = sub.add_parser("fer-vs-samplerate", help="frame error rate over channel sample rates")
    _add_fading(p)
    _add_link(p)
    p.add_argument("--rates", type=_parse_sweep, default=_FIGURE6_RATES, metavar="SWEEP")
    p.add_argument("--doppler-hz", type=float, default=100.0, metavar="F")
    p.add_argument("--gain-db", type=float, default=-5.0, metavar="DB")
    p.add_argument("--snr-db", type=float, default=10.0, metavar="DB")
    _add_common(p)

    p = sub.add_parser("ber-vs-snr", help="uncoded 4x4 detector BER over an SNR sweep")
    p.add_argument("--detector", choices=[d.value for d in DetectorKind], required=True)
    p.add_argument("--snr-db", type=_parse_sweep, default="0:4:20", metavar="SWEEP")
    p.add_argument("--nt", type=int, default=4, metavar="N")
    p.add_argument("--nr", type=int, default=4, metavar="N")
    p.add_argument("--gain-db", type=float, default=0.0, metavar="DB")
    p.add_argument("--frame-bits", type=int, default=120, metavar="N")
    p.add_argument("--max-frames", type=int, default=100_000, metavar="N")
    p.add_argument("--target-errors", type=int, default=200, metavar="N")
    _add_common(p)

    p = sub.add_parser("validate-fading", help="statistical self-check of one fading process")
    _add_fading(p)
    p.add_argument("--doppler-hz", type=float, default=100.0, metavar="F")
    p.add_argument("--sample-rate-hz", type=float, default=256.0, metavar="FS")
    p.add_argument("--samples", type=int, default=1_000_000, metavar="N")
    _add_common(p, with_workers=False)

    return parser


def _fading_spec(args) -> FadingSpec:
    # A FER subcommand lacks the flag of the quantity it sweeps (see _build_config).
    model = FadingModel(args.fading)
    return FadingSpec(
        model=model,
        max_doppler_hz=getattr(args, "doppler_hz", None),
        sample_rate_hz=getattr(args, "sample_rate_hz", None),
        num_sinusoids=args.num_sinusoids,
        k_factor=args.k if model is FadingModel.RICIAN else 0.0,
        los_doppler_hz=args.los_doppler_hz,
        los_phase_rad=args.los_phase_rad,
    )


# The experiment subcommands: the Experiment each runs, the argparse dest
# that holds its sweep, and its plot's x label, rate column (fer 4, ber 9
# in the CSV) and log-x flag.
_EXPERIMENTS = {
    "fer-vs-gain": (Experiment.FER_VS_GAIN, "gain_db", "path gain (dB)", 4, False),
    "fer-vs-doppler": (Experiment.FER_VS_DOPPLER, "dopplers", "max Doppler (Hz)", 4, False),
    "fer-vs-samplerate": (Experiment.FER_VS_SAMPLE_RATE, "rates", "sample rate (Hz)", 4, True),
    "ber-vs-snr": (Experiment.BER_VS_SNR, "snr_db", "SNR (dB)", 9, False),
}


def _build_config(args) -> SimConfig:
    """The config of an experiment subcommand. Its swept field holds a stand-in
    (the sweep itself, or None) until _point_config, the rule for every sweep
    point, sets it to the sweep's first value."""
    experiment, dest, *_ = _EXPERIMENTS[args.command]
    sweep = getattr(args, dest)
    if experiment is Experiment.BER_VS_SNR:
        channel = ChannelSpec(n_tx=args.nt, n_rx=args.nr, path_gain_db=args.gain_db)
        code, detector = None, DetectorKind(args.detector)
    else:
        channel = ChannelSpec(n_tx=args.code[0], n_rx=args.nr, fading=_fading_spec(args),
                              correlation=correlation_rho(args.correlation),
                              path_gain_db=args.gain_db)
        code, detector = args.code, None
    config = SimConfig(
        experiment=experiment,
        channel=channel,
        code=code,
        detector=detector,
        frame_bits=args.frame_bits,
        snr_db=args.snr_db,
        sweep=sweep,
        max_frames=args.max_frames,
        target_frame_errors=args.target_errors,
        master_seed=args.seed,
    )
    return _point_config(config, sweep[0])


def _write_plot_script(path: str, csv_path: str, command: str) -> None:
    """Write a gnuplot script for the CSV: a subcommand's rate with its 95%
    interval, or validate-fading's empirical and theoretical autocorrelation."""
    if command == "validate-fading":
        xlabel, ylabel = "lag (s)", "real-part autocorrelation"
        settings = ["set grid"]
        series = [(2, "points", "empirical"), (3, "lines", "theory")]
    else:
        experiment, _, xlabel, col, logx = _EXPERIMENTS[command]
        ylabel = "bit error rate" if experiment is Experiment.BER_VS_SNR else "frame error rate"
        settings = ["set logscale y", "set grid", "set key left bottom"]
        settings += ["set logscale x"] if logx else []
        series = [(col, "linespoints", ylabel), (col + 1, "lines dashtype 2", "95% lo"),
                  (col + 2, "lines dashtype 2", "95% hi")]
    sources = [f"plot '{csv_path}'"] + ["     ''"] * (len(series) - 1)
    plots = [f"{src} using 1:{c} with {style} title '{title}'"
             for src, (c, style, title) in zip(sources, series)]
    lines = [
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        *settings,
        ", \\\n".join(plots),
        "pause -1",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_output_path(flag: str, path: str) -> None:
    """Raise ValueError unless path can be opened for writing: not a
    directory, in an existing, writable directory."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"{flag} {path} is a directory")
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK | os.X_OK):
        raise ValueError(f"{flag} {path}: directory {parent} is missing or not writable")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise ValueError(f"{flag} {path} is not writable")


def _validate_fading_csv(args) -> str:
    spec = _fading_spec(args)
    # Every input is checked before fading_init draws anything.
    spec.validate()
    check_validation_samples(args.samples)
    proc = fading_init(spec, RngStream(args.seed, VALIDATE_FADING_STREAM))
    stats = validate_process(proc, args.samples)
    pairs = [
        ("experiment", VALIDATE_FADING),
        *fading_pairs(spec),
        ("samples", str(args.samples)),
        ("master_seed", str(args.seed)),
        ("ks_statistic", format(stats.ks_statistic, ".6g")),
        ("empirical_mean_power", format(stats.empirical_mean_power, ".6g")),
    ]
    return render_csv(pairs, "lag_s,autocorr_empirical,autocorr_theoretical", stats.autocorr_lags)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        _check_output_path("--out", args.out)
        if args.plot_script:
            _check_output_path("--plot-script", args.plot_script)
        if args.command == "validate-fading":
            text = _validate_fading_csv(args)
        else:
            config = _build_config(args)
            config.validate()
            cpus = os.cpu_count() or 1
            if not 1 <= args.workers <= cpus:
                raise ValueError(f"--workers must lie in 1..{cpus}, the CPU count")
    except ValueError as exc:
        print(f"mimolink: invalid configuration: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command != "validate-fading":
            result = run_experiment(config, workers=args.workers)
            text = emit_csv(result, config)
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
        if args.plot_script:
            _write_plot_script(args.plot_script, args.out, args.command)
    except Exception as exc:  # noqa: BLE001 - any runtime failure maps to exit 2
        print(f"mimolink: runtime failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
