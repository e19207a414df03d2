import pytest

from burstlab import REDUCED4D, InvalidParameterError, StepSizeError, fit
from burstlab.features import burst_features
from burstlab.fit import (FitProblem, fit_path, latin_hypercube, nelder_mead,
                          PENALTY)


def test_nelder_mead_quadratic():
    calls = []

    def f(x):
        calls.append(x)
        return (x["a"] - 0.3) ** 2 + 2.0 * (x["b"] + 0.5) ** 2

    best, fbest, evals = nelder_mead(
        f, {"a": 0.0, "b": 0.0}, {"a": (-1, 1), "b": (-1, 1)}, max_evals=200)
    assert fbest < 1e-10
    assert best["a"] == pytest.approx(0.3, abs=1e-4)
    assert best["b"] == pytest.approx(-0.5, abs=1e-4)
    assert evals <= 200


def test_nelder_mead_respects_bounds():
    def f(x):
        assert -1.0 <= x["a"] <= 1.0
        return (x["a"] - 5.0) ** 2

    best, fbest, _ = nelder_mead(f, {"a": 0.0}, {"a": (-1, 1)}, max_evals=80)
    assert best["a"] == pytest.approx(1.0, abs=1e-6)


def test_latin_hypercube_stratified_and_deterministic():
    bounds = {"x": (0.0, 1.0), "y": (-2.0, 2.0)}
    s1 = latin_hypercube(bounds, 10, seed=42)
    s2 = latin_hypercube(bounds, 10, seed=42)
    assert s1 == s2
    xs = sorted(p["x"] for p in s1)
    # one sample per decile
    for i, x in enumerate(xs):
        assert i / 10 <= x < (i + 1) / 10
    assert latin_hypercube(bounds, 10, seed=43) != s1


@pytest.fixture(scope="module")
def small_problem(reduced, curves2, fig4_d1_trace):
    snic, ah = curves2
    target = burst_features(fig4_d1_trace)
    return FitProblem(
        target=target,
        bounds={"d": (0.5, 2.0), "ca0": (-0.05, 0.08)},
        fixed={"ca_c": 0.15, "na_c": 5.85, "eps": 0.004},
        params=REDUCED4D, snic=snic, ah=ah,
        budget=36, seed=1)


def test_fit_problem_validation(small_problem):
    with pytest.raises(ValueError, match="unconstrained"):
        FitProblem(target=small_problem.target, bounds={},
                   fixed={"ca_c": 0.15}, params=REDUCED4D,
                   snic=small_problem.snic, ah=small_problem.ah)
    with pytest.raises(ValueError, match="strictly positive"):
        FitProblem(target=small_problem.target,
                   bounds={"d": (-1.0, 2.0)},
                   fixed={"ca_c": 0.15, "na_c": 5.85, "ca0": 0.0,
                          "eps": 0.004},
                   params=REDUCED4D, snic=small_problem.snic,
                   ah=small_problem.ah)


def test_fit_smoke_and_invariants(small_problem):
    result = fit_path(small_problem, workers=1)
    # monotone best-so-far over the log
    best = result.best_so_far()
    assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))
    # the returned best is DB-classified and matches the log minimum
    db = [tr for tr in result.trials if tr.db]
    assert db
    assert result.best_distance == min(tr.distance for tr in db)
    assert result.best_distance < PENALTY
    assert len(result.trials) <= small_problem.budget + 1
    # deterministic repeat, also when phase 1 runs in a process pool
    for workers in (1, 2):
        again = fit_path(small_problem, workers=workers)
        assert again.best_distance == result.best_distance
        assert again.trials == result.trials


def test_fit_penalizes_non_db(reduced, curves2, fig4_d1_trace):
    # a box partly in the quiescent region: non-DB trials are logged with
    # the penalty and never returned as best
    snic, ah = curves2
    target = burst_features(fig4_d1_trace)
    problem = FitProblem(
        target=target,
        bounds={"ca_c": (-0.3, 0.2)},
        fixed={"na_c": 5.85, "d": 1.0, "ca0": -0.45, "eps": 0.004},
        params=REDUCED4D, snic=snic, ah=ah, budget=12, seed=3)
    result = fit_path(problem, workers=1)
    assert any(not tr.db for tr in result.trials)
    assert all(tr.distance == PENALTY for tr in result.trials if not tr.db)
    # every trial is timed and carries its class
    assert {tr.status for tr in result.trials} == {"db", "not_db"}
    assert all(tr.db == (tr.status == "db") for tr in result.trials)
    assert all(tr.seconds > 0.0 for tr in result.trials)
    best_trial = min((tr for tr in result.trials if tr.db),
                     key=lambda tr: tr.distance)
    assert result.best_distance == best_trial.distance


def test_fit_errors_when_no_db_point(reduced, curves2, fig4_d1_trace):
    snic, ah = curves2
    target = burst_features(fig4_d1_trace)
    problem = FitProblem(
        target=target,
        bounds={"d": (0.5, 2.0)},
        fixed={"ca_c": -0.4, "na_c": 5.5, "ca0": -0.45, "eps": 0.01},
        params=REDUCED4D, snic=snic, ah=ah, budget=9, seed=0)
    with pytest.raises(RuntimeError, match="sequences"):
        fit_path(problem, workers=1)


def test_fit_result_csv(tmp_path, small_problem):
    result = fit_path(small_problem, workers=1)
    out = tmp_path / "log.csv"
    result.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "ca0,d,distance,db,status,seconds,sequence"
    assert len(lines) == len(result.trials) + 1
    for line, tr in zip(lines[1:], result.trials):
        status, seconds, sequence = line.split(",", 6)[4:]
        assert status == tr.status and sequence == tr.sequence
        assert float(seconds) == pytest.approx(tr.seconds, abs=1e-6)


def _raise(exc):
    def run_driven(*args, **kwargs):
        raise exc
    return run_driven


def test_fit_propagates_programming_errors(small_problem, monkeypatch):
    monkeypatch.setattr(fit, "run_driven", _raise(TypeError("forced")))
    with pytest.raises(TypeError, match="forced"):
        fit_path(small_problem, workers=1)


def test_fit_step_failure_is_penalized(small_problem, monkeypatch):
    monkeypatch.setattr(fit, "run_driven", _raise(StepSizeError("forced", 0.0)))
    trial = fit._evaluate(small_problem, {"d": 1.0, "ca0": 0.0})
    assert trial.distance == PENALTY and not trial.db
    assert trial.sequence == "error: forced"
    assert trial.status == "step_failure"


def test_fit_invalid_path_is_penalized(small_problem, monkeypatch):
    monkeypatch.setattr(fit, "run_driven",
                        _raise(InvalidParameterError("forced")))
    trial = fit._evaluate(small_problem, {"d": 1.0, "ca0": 0.0})
    assert trial.distance == PENALTY and not trial.db
    assert (trial.status, trial.sequence) == ("invalid", "error: forced")
