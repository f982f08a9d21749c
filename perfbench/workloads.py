"""The workloads: their inputs and the CLI commands each one runs.

Standard library only, so that trace.py can import it before primesums
without moving any of the import's cost into its own.
"""

from __future__ import annotations

from pathlib import Path

DEFAULT_RATIO = 2.0**0.25  # the CLI's default --grid-ratio
DENSE_RATIO = "1.0001"

# name -> (base x_max, top of the range its commands sieve as a multiple of x_max)
WORKLOADS = {
    "stream-1e8": (10**8, 1),
    "checks-1e8": (10**8, 1),
    "resume-dense-1e7": (10**7, 2),
}


def seeded_x(base: int, seed: int) -> int:
    """base moved up by at most 0.1%; seed 0 gives base itself."""
    return base + (seed % 1000) * (base // 10**6)


def commands(name: str, x: int, work: Path) -> tuple[list[list[str]], list[list[str]]]:
    """(set-up, timed) CLI argument lists of a workload at x, writing under work.

    The set-up commands make what the timed ones read; they are not timed.
    """
    if name == "stream-1e8":
        return [], [["compute", "--x-max", str(x), "--out", str(work / "stream")]]
    if name == "checks-1e8":
        stored = work / "stored"
        ckpt, out = str(stored / "checkpoints.txt"), str(work / "checks")
        return (
            [["compute", "--x-max", str(x), "--out", str(stored)]],
            [
                ["verify", "--x-max", str(x), "--resume", ckpt, "--out", out],
                ["report", "--x-max", str(x), "--out", out, ckpt],
            ],
        )
    first, resumed = work / "first", work / "resumed"
    grid = ["--grid-ratio", DENSE_RATIO]
    return [], [
        ["compute", "--x-max", str(x), *grid, "--out", str(first)],
        [
            "compute", "--x-max", str(2 * x), *grid, "--out", str(resumed),
            "--resume", str(first / "checkpoints.txt"),
        ],
    ]
