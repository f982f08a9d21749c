"""Regenerate the regression fixtures in tests/data/band_fixtures.json.

The tracked ratios are only known to be bounded, not to have published
limiting values, so acceptance pins the bands observed on a first
calibrated run (oracle-checked at 1e6) and requires reruns to reproduce
them.  Run from the repository root:

    python3 tests/calibrate.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from oracles import main_term_growth
from primesums.accumulate import grid_points, run_stream
from primesums.asymptotics import an_sn_band, empirical_constants
from primesums.sieve import prime_count

X_MAX = 10**8
GRID_START = 3.0
GRID_RATIO = 2.0**0.25
BAND_WINDOW = (1e3, 1e8)


def band_dict(band):
    return {
        "x_min": band.x_min,
        "x_max": band.x_max,
        "inf_value": band.inf_value,
        "inf_at": band.inf_at,
        "sup_value": band.sup_value,
        "sup_at": band.sup_at,
    }


def main() -> None:
    out = Path(__file__).parent / "data" / "band_fixtures.json"
    out.parent.mkdir(exist_ok=True)

    t0 = time.time()
    grid = grid_points(GRID_START, float(X_MAX), GRID_RATIO)
    result = run_stream(float(X_MAX), grid)
    print(f"calibration run to {X_MAX:g}: {time.time() - t0:.1f}s", file=sys.stderr)

    lo, hi = BAND_WINDOW
    bands = {
        b.name: band_dict(b)
        for b in empirical_constants(result.checkpoints, lo, hi)
        if b.name != "mertens_remainder"
    }
    # anS samples with p_n inside the window: p_n >= lo iff n exceeds the
    # number of primes below lo, and the run ends exactly at hi
    n_min = prime_count(int(lo) - 1) + 1
    bands["anS"] = band_dict(an_sn_band(result.an_sn_samples, n_min=n_min))

    cps = result.checkpoints
    fixtures = {
        "config": {
            "x_max": X_MAX,
            "grid_start": GRID_START,
            "grid_ratio": GRID_RATIO,
            "band_window": list(BAND_WINDOW),
        },
        "bands": bands,
        "final_checkpoint": {
            "x": cps.x[-1].item(),
            "pi": cps.pi[-1].item(),
            "S": cps.S[-1].item(),
            "M": cps.M[-1].item(),
            "E": cps.E[-1].item(),
        },
        "main_term_growth": {
            "1e3": main_term_growth(1e3),
            "1e6": main_term_growth(1e6),
        },
    }
    out.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
