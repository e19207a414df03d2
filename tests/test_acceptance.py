"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The criteria use the stated tolerances; oracles live in
tests/oracles.py and are independent of the production algorithms.
"""
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from burstlab import EllipsePath, FULL7D, REDUCED4D, ModelParams, integrate
from burstlab.bifurcation import verify_snic
from burstlab.features import (burst_features, feature_distance,
                               min_oscillation_amplitude, run_autonomous,
                               run_driven, segment_stages)
from burstlab.figures import FIG6_WINDOW, PERIOD_LEVELS
from burstlab.fit import FitProblem, fit_path
from burstlab.landscape import PERIOD, build_field, extract_contours

from oracles import fold_ca_oracle, hopf_ca_oracle, rk4

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL: {label}", flush=True)
        raise
    print(f"\nACCEPTANCE {num:02d} PASS: {label}", flush=True)


def test_criterion_01_model_fidelity():
    with criterion(1, "parameter presets match the published tables"):
        assert FULL7D.to_text() == (DATA / "full7d_params.txt").read_text()
        assert REDUCED4D.to_text() == (DATA / "reduced4d_params.txt").read_text()
        assert ModelParams.from_text(FULL7D.to_text()) == FULL7D
        assert ModelParams.from_text(REDUCED4D.to_text()) == REDUCED4D


def test_criterion_02_bifurcation_structure(reduced, curves2):
    with criterion(2, "reduced fold and Hopf curves with AH right of SNIC; "
                      "oracle agreement to 1e-3 at Na = 5.2 and 5.85"):
        snic, ah = curves2
        win = (-0.1, 1.2, 4.8, 6.4)
        in_win = lambda c: [(ca, na) for ca, na in zip(c.ca, c.na)
                            if win[0] <= ca <= win[1] and win[2] <= na <= win[3]]
        snic_pts, ah_pts = in_win(snic), in_win(ah)
        assert len(snic_pts) > 50 and len(ah_pts) > 100
        shared = [na for _, na in snic_pts if ah.na[0] <= na <= ah.na[-1]]
        assert all(ah.ca_at(na) > snic.ca_at(na) for na in shared)
        for na in (5.2, 5.85):
            assert abs(snic.ca_at(na) - fold_ca_oracle(reduced, na)) < 1e-3
            assert abs(ah.ca_at(na) - hopf_ca_oracle(reduced, na)) < 1e-3


def test_criterion_03_snic_verification(reduced, curves2):
    with criterion(3, "period divergence at 3 fold points (monotone, "
                      "max > 100 ms)"):
        snic, _ = curves2
        for na in (5.2, 5.5, 5.8):
            chk = verify_snic(reduced, (snic.ca_at(na), na))
            assert chk.ok, (na, chk.reason, chk.periods)
            assert all(b > a for a, b in zip(chk.periods, chk.periods[1:]))
            assert chk.periods[-1] > 100.0


def _classify(fast, path, snic, ah, rel_tol, abs_tol):
    trace = run_driven(fast, path, snic, ah, rel_tol=rel_tol, abs_tol=abs_tol)
    segment_stages(trace)   # raises unless the sequence is DB
    return trace.sequence_str()


def test_criterion_04_db_classification(reduced, full, curves2, curves5):
    with criterion(4, "all driven figure paths classify as DB, stable "
                      "under tolerance halving"):
        runs = []
        for d in (0.5, 2.0, 20.0):
            runs.append((full, EllipsePath.centered(0.7, 5.35, d, 0.0, 0.009),
                         curves5))
        for d in (0.2, 1.0, 50.0):
            runs.append((reduced,
                         EllipsePath.centered(0.15, 5.85, d, 0.0, 0.004),
                         curves2))
        for fast, path, (snic, ah) in runs:
            seq = _classify(fast, path, snic, ah, 1e-8, 1e-8)
            assert seq == "SNIC+,AH+,AH-,SNIC-", (fast.name, path.d, seq)
            seq2 = _classify(fast, path, snic, ah, 5e-9, 5e-9)
            assert seq2 == seq, (fast.name, path.d, seq2)


def test_criterion_05_period_landscape(reduced, curves2):
    with criterion(5, "period field defined only between the curves, "
                      "> 40 ms next to SNIC, near-AH contour folds in Na"):
        snic, ah = curves2
        field = build_field(PERIOD, FIG6_WINDOW, reduced)
        cell_ca, _ = FIG6_WINDOW.cell
        cas = FIG6_WINDOW.ca_axis()
        nas = FIG6_WINDOW.na_axis()
        adjacent = []
        for j, na in enumerate(nas):
            cs, ca_ah = snic.ca_at(na), ah.ca_at(na)
            for i, ca in enumerate(cas):
                if math.isfinite(field.values[i, j]):
                    assert cs - cell_ca <= ca <= ca_ah + cell_ca, \
                        (ca, na, field.values[i, j])
            if snic.na[0] <= na <= snic.na[-1]:
                row = [field.values[i, j] for i, ca in enumerate(cas)
                       if ca >= cs and math.isfinite(field.values[i, j])]
                if row:
                    adjacent.append(row[0])
        assert adjacent and all(p > 40.0 for p in adjacent)
        cset = extract_contours(field, PERIOD_LEVELS)
        folded = []
        for level in cset.levels:
            for poly in cset.polylines.get(level, []):
                if len(poly) < 5:
                    continue
                dist = min(abs(ah.signed_distance(tuple(p)))
                           for p in poly[::2])
                na_sign = np.sign(np.diff(poly[:, 1]))
                na_sign = na_sign[na_sign != 0]
                has_fold = bool((np.diff(na_sign) != 0).any())
                if dist < 0.05 and has_fold:
                    folded.append(level)
        assert folded, "no near-AH contour with a fold in Na"


def test_criterion_06_interspike_interval_contrast(reduced, curves2):
    with criterion(6, "red path: longer first-spike delay and first two "
                      "ISIs above blue's maximum"):
        snic, ah = curves2
        blue = EllipsePath.centered(0.15, 5.2, 0.1, 0.0, 0.009)
        red = EllipsePath(ca_c=0.1, na_c=5.1, d=1.0, ca0=-0.1, na0=5.1,
                          eps=0.009)
        fb = burst_features(run_driven(reduced, blue, snic, ah))
        fr = burst_features(run_driven(reduced, red, snic, ah))
        assert fr.first_spike_delay > fb.first_spike_delay
        assert len(fr.isis) >= 2
        assert fr.isis[0] > max(fb.isis)
        assert fr.isis[1] > max(fb.isis)


def test_criterion_07_nonmonotone_spike_count(reduced, curves2):
    with criterion(7, "stage-(v) spike counts: count(0.2) > count(0.4) "
                      ">= count(0.1) = 0"):
        snic, ah = curves2
        counts = {}
        for d in (0.1, 0.2, 0.4):
            path = EllipsePath.centered(0.19, 5.75, d, 0.04, 0.004)
            fv = burst_features(run_driven(reduced, path, snic, ah))
            counts[d] = fv.stage_v_count
        assert counts[0.1] == 0, counts
        assert counts[0.4] >= counts[0.1], counts
        assert counts[0.2] > counts[0.4], counts


def test_criterion_08_eps_scaling_and_attenuation(reduced, curves2):
    with criterion(8, "stage durations scale as 1/eps within 5%; mid-burst "
                      "attenuation deepens as eps decreases"):
        snic, ah = curves2
        scaled = {}
        amps = []
        for eps in (0.002, 0.006, 0.01):
            path = EllipsePath.centered(0.15, 5.85, 0.1, 0.0, eps)
            trace = run_driven(reduced, path, snic, ah)
            st = segment_stages(trace)
            scaled[eps] = {k: st.duration(k) * eps
                           for k in ("i", "ii", "iii", "iv", "v")}
            amps.append(min_oscillation_amplitude(trace, st.iii[0], st.v[0]))
        ref = scaled[0.002]
        for eps in (0.006, 0.01):
            for k in ("i", "ii", "v"):
                assert abs(scaled[eps][k] - ref[k]) <= 0.05 * ref[k], \
                    (eps, k, scaled)
            both = (scaled[eps]["iii"] + scaled[eps]["iv"],
                    ref["iii"] + ref["iv"])
            assert abs(both[0] - both[1]) <= 0.05 * both[1]
        assert amps[0] < amps[1] < amps[2], amps


def test_criterion_09_fit_sanity(reduced, full, curves2, curves5,
                                 fig4_d1_path, fig4_d1_trace):
    with criterion(9, "self-consistency fit beats the tolerance noise "
                      "floor; 7D-target fit improves >= 50% on baseline"):
        snic, ah = curves2
        target = burst_features(fig4_d1_trace)
        finer = burst_features(run_driven(reduced, fig4_d1_path, snic, ah,
                                          rel_tol=5e-9, abs_tol=5e-9))
        floor = feature_distance(target, finer)
        problem = FitProblem(
            target=target,
            bounds={"d": (0.5, 2.0), "ca0": (-0.05, 0.08)},
            fixed={"ca_c": 0.15, "na_c": 5.85, "eps": 0.004},
            params=REDUCED4D, snic=snic, ah=ah, budget=300, seed=2024)
        best = fit_path(problem, workers=1).best_distance
        assert best < floor, \
            f"recovered distance {best:.3e} not below noise floor {floor:.3e}"

        snic5, ah5 = curves5
        target7 = burst_features(run_autonomous(full, snic5, ah5))
        baseline = feature_distance(burst_features(fig4_d1_trace), target7)
        # the driven-model burst period is exactly 2 pi / eps, so the eps
        # box comes straight from the target period
        eps_star = 2 * math.pi / target7.period
        problem7 = FitProblem(
            target=target7,
            bounds={"ca_c": (0.08, 0.30), "d": (0.15, 5.0),
                    "ca0": (-0.10, 0.14),
                    "eps": (0.95 * eps_star, 1.05 * eps_star)},
            fixed={"na_c": 5.85},
            params=REDUCED4D, snic=snic, ah=ah, budget=300, seed=2,
            rel_tol=1e-6, abs_tol=1e-6)
        best7 = fit_path(problem7, workers=1).best_distance
        improvement = 1.0 - best7 / baseline
        assert best7 <= 0.5 * baseline, \
            (f"fitted distance {best7:.4f} vs baseline {baseline:.4f} "
             f"({improvement:.1%} improvement, needed >= 50%)")


def test_criterion_10_numerical_hygiene(reduced):
    with criterion(10, "ellipse invariant drift < 1e-6 per slow period; "
                       "RK4 oracle agreement to 1e-4 in v over 500 ms"):
        path = EllipsePath.centered(0.15, 5.85, 1.0, 0.0, 0.004)
        traj = integrate(lambda t, y: path.rhs(y), (path.ca0, path.na0),
                         (0.0, path.period), rel_tol=1e-9, abs_tol=1e-9)
        q0 = path.conserved((path.ca0, path.na0))
        qs = np.array([path.conserved(y) for y in traj.ys])
        assert np.abs(qs - q0).max() / q0 < 1e-6

        slow = (0.45, 5.85)     # depolarization-block point, right of AH
        rhs = reduced.frozen_rhs(slow)
        y0 = reduced.slaved(-30.0)
        adaptive = integrate(rhs, y0, (0.0, 500.0),
                             rel_tol=1e-10, abs_tol=1e-10)
        ts, ys = rk4(rhs, y0, (0.0, 500.0), 1e-3)
        sel = np.arange(0, len(ts), 500)
        dense = adaptive.sample(ts[sel])
        assert np.abs(dense[:, 0] - ys[sel, 0]).max() < 1e-4
