"""Byte-exact gate: sha256 of full CLI CSVs across every code path.

The cases together cover all five OSTBC designs, every correlation level,
Rician fading with a moving line of sight, all three detectors (ZF at 0 dB
included, ML also at an odd 3x2 antenna split), the error-target cut, and
the worker pool, with at least 500 frames per CSV. One FER case runs at
300 Hz to 10 kHz, where the fading kernel takes its low-rate plans, not
the long Taylor blocks of 1 MHz. Two more mix correlated links at shapes
the others miss: four receive antennas over two transmit at an explicit
coefficient, and one receive antenna at high correlation. Two sweeps stop
each point on its own trial, an MMSE one among them, and the cut FER sweep
runs on one worker and on two. A change to any one trial's outcome on any
of these paths changes a digest. Two validate-fading cases, Rayleigh and
Rician with a moving line of sight, pin its stream and its CSV header. The
digests were recorded with the per-frame engine that run_frame still
implements, and the last two with the point-by-point sweep engine, so they
also pin the batched, sweep-shared engine to both.
"""

import hashlib

import pytest

from mimolink.cli import main

_FIXED = ("--snr-db", "10", "--target-errors", "1000000000")
_BER = ("ber-vs-snr", "--snr-db", "0,10", "--max-frames", "500", "--target-errors", "1000000000")
_RICIAN = (
    "fer-vs-doppler", "--code", "2x1", "--nr", "2", "--fading", "rician", "--k", "4",
    "--los-doppler-hz", "100", "--correlation", "high", "--dopplers", "25,100",
    "--gain-db", "-6", "--max-frames", "500", *_FIXED,
)
_RICIAN_SHA = "141ec55a1b74942557ae48480cbefbb11ecaabca34e2395dc87c7fd9fa0d7fc7"
_VALIDATE = ("validate-fading", "--samples", "100000")
# The error target cuts the first two points mid-chunk.
_CUT_GAIN = (
    "fer-vs-gain", "--code", "4x3/4", "--nr", "2", "--correlation", "low",
    "--frame-bits", "24", "--gain-db", "-12:6:0", "--snr-db", "10",
    "--target-errors", "150", "--max-frames", "600",
)
_CUT_GAIN_SHA = "7110ea050d642ba2fd92078b931d619b8683c5ffa5f371202981ce637811c9d6"

CASES = [
    (
        ("fer-vs-gain", "--code", "4x3/4", "--nr", "4", "--correlation", "high",
         "--gain-db", "-6", "--max-frames", "500", *_FIXED),
        "2c5390eaa483a9673c4bfd0e396340ed2103b45c26f4dd56a9b6a72d442708db",
    ),
    (
        ("fer-vs-gain", "--code", "4x1/2", "--nr", "2", "--correlation", "medium",
         "--frame-bits", "48", "--gain-db", "-9", "--max-frames", "500", *_FIXED),
        "612364eee59dd128aeba0c7864c21a57442de9e2f612c4f04fdd6f5833f0f422",
    ),
    (
        ("fer-vs-doppler", "--code", "3x3/4", "--nr", "3", "--correlation", "low",
         "--frame-bits", "36", "--dopplers", "50", "--gain-db", "-8", "--max-frames", "500",
         *_FIXED),
        "a40ff6887a9535637b6733db0b79eb992c759e2edd220ed8edf3697c4a5cd279",
    ),
    (
        ("fer-vs-samplerate", "--code", "3x1/2", "--nr", "1", "--correlation", "none",
         "--frame-bits", "32", "--rates", "2e5", "--gain-db", "-4", "--max-frames", "500",
         *_FIXED),
        "c62dc58871f72ed6ba92c5279e4145596d29457f2cc09bbe85aa59a55884301a",
    ),
    (_RICIAN, _RICIAN_SHA),
    ((*_RICIAN, "--workers", "2"), _RICIAN_SHA),
    (_CUT_GAIN, _CUT_GAIN_SHA),
    ((*_BER, "--detector", "zf"), "d62246837b881de7942ae43b1211d0a1dc709c7a23e01358649fe08dcfc1bfbb"),
    ((*_BER, "--detector", "mmse"), "a712fbd0cb1996094968e9303fda3a43826b1b831acb54c3e6e0c572e1e0f8b0"),
    ((*_BER, "--detector", "ml"), "a74c06c32ba019e482f08645bc414e3cb04c85a357a51e07cfdca3ac93283530"),
    (
        # An odd head/tail split of the ML search, with fewer receive than
        # transmit antennas.
        (*_BER, "--nt", "3", "--nr", "2", "--detector", "ml"),
        "a1cab89a73f921da46fbb4c5b483bbf33a473315e60ff70072e829aca3d4fb45",
    ),
    (_VALIDATE, "5bcc30857070774884e1c320852d78acfbe29fc481dff645cbe7e66080e2ab67"),
    (
        (*_VALIDATE, "--fading", "rician", "--k", "4", "--los-doppler-hz", "100",
         "--doppler-hz", "100", "--sample-rate-hz", "1000"),
        "14b5c18bad82c671b260eac04cebf28a842757c4ed6ad753667cb40ff37bcdfc",
    ),
    (
        ("fer-vs-samplerate", "--code", "2x1", "--nr", "2", "--fading", "rician", "--k", "4",
         "--los-doppler-hz", "100", "--correlation", "high", "--rates", "300,1000,2560,10000",
         "--gain-db", "-6", "--max-frames", "500", *_FIXED),
        "e34a32851bcec4ccdaa8de25ecdf7a206496823ab6501f229b17ec73bf28a072",
    ),
    (
        # Correlated mixing with more receive than transmit antennas, at an
        # explicit coefficient that no named level gives.
        ("fer-vs-gain", "--code", "2x1", "--nr", "4", "--correlation", "0.37",
         "--gain-db", "-8,-4", "--max-frames", "500", *_FIXED),
        "3819e20a6ef1ca1a21e4792fd1ea1fb10fe4317e4ec231d5d5ab80fe7b42d27d",
    ),
    (
        # One receive antenna: the receive root is 1x1, the transmit root
        # 3x3 at high correlation.
        ("fer-vs-gain", "--code", "3x3/4", "--nr", "1", "--correlation", "high",
         "--gain-db", "-2,2", "--max-frames", "500", *_FIXED),
        "3de843119edb6c726f38750cd7d85fe63759c5ad742c06414c7a73f8848b5be9",
    ),
    (
        # The error target cuts the points at 104, 135 and 256 trials, and
        # the last runs to max_frames, so each point of the sweep stops on
        # its own trial.
        ("ber-vs-snr", "--detector", "mmse", "--frame-bits", "16", "--snr-db", "0:6:18",
         "--target-errors", "100", "--max-frames", "600"),
        "b216347fb4ac601bed13dc47c443ca0d7de6232445baff29f51df38e4a8808d1",
    ),
    ((*_CUT_GAIN, "--workers", "2"), _CUT_GAIN_SHA),
]


@pytest.mark.parametrize("argv, digest", CASES, ids=[f"case{i}" for i in range(len(CASES))])
def test_csv_digest_is_pinned(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main([*argv, "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
