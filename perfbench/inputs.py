"""The benchmark's input files: SNIC/AH curves for both models and the fit
target. They are kept in perfbench/data so a run does not trace them.

Make them anew (one to two minutes on one core) with

    python3 perfbench/inputs.py

It traces both curves over CURVE_RANGES with compute_curves, writes them
with write_curves, and writes the burst features of the true path as the
target of the self-consistency fit.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
SRC = HERE.parent / "src"

# the fig4 d = 1 path; the fit frees d and ca0 and should recover them
TRUE_PATH = {"ca_c": 0.15, "na_c": 5.85, "d": 1.0, "ca0": 0.0, "eps": 0.004}


def curves_file(model: str) -> Path:
    return DATA / f"curves_{model}.csv"


TARGET_FILE = DATA / "target_fig4_d1.csv"


def load(bl) -> tuple:
    """({model: (snic, ah)}, target FeatureVector) from the data files."""
    curves = {}
    for model in ("reduced", "full"):
        c = bl.bifurcation.read_curves(curves_file(model))
        curves[model] = (c["SNIC"], c["AH"])
    return curves, bl.features.FeatureVector.from_csv(TARGET_FILE)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from burstlab import (FULL7D, REDUCED4D, EllipsePath, FullFast,
                          ReducedFast, burst_features, run_driven,
                          write_curves)
    from burstlab.figures import compute_curves

    DATA.mkdir(exist_ok=True)
    curves = {}
    for fast in (ReducedFast(REDUCED4D), FullFast(FULL7D)):
        snic, ah = compute_curves(fast)
        write_curves(curves_file(fast.name), snic, ah)
        curves[fast.name] = (snic, ah)
        print(f"{fast.name}: {len(snic)} SNIC and {len(ah)} AH points")
    reduced = ReducedFast(REDUCED4D)
    trace = run_driven(reduced, EllipsePath.centered(**TRUE_PATH),
                       *curves["reduced"])
    burst_features(trace).to_csv(TARGET_FILE)
    print(f"target: {trace.sequence_str()}, {len(trace.spikes)} spikes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
