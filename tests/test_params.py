from pathlib import Path

import pytest

from burstlab import FULL7D, REDUCED4D, InvalidParameterError, ModelParams

DATA = Path(__file__).parent / "data"


def test_full7d_against_golden_file():
    assert FULL7D.to_text() == (DATA / "full7d_params.txt").read_text()


def test_reduced4d_against_golden_file():
    assert REDUCED4D.to_text() == (DATA / "reduced4d_params.txt").read_text()


def test_reduced4d_overrides():
    assert REDUCED4D.g_k == 15.0
    assert REDUCED4D.theta_s == 10.0
    assert REDUCED4D.g_can == 10.0
    assert REDUCED4D.k_can == 0.25
    assert REDUCED4D.sigma_s == -8.0
    assert REDUCED4D.k_ca == 60.0
    assert REDUCED4D.k_ip3 == 1700.0
    assert REDUCED4D.k == 10.0
    assert REDUCED4D.r_pump == 1500.0
    assert REDUCED4D.eps == 0.005
    # everything else is shared with the 7D preset
    assert REDUCED4D.g_na == FULL7D.g_na
    assert REDUCED4D.sigma_m == FULL7D.sigma_m
    assert REDUCED4D.alpha == FULL7D.alpha
    assert REDUCED4D.c == FULL7D.c == 45.0


@pytest.mark.parametrize("preset", [FULL7D, REDUCED4D])
def test_round_trip_lossless(preset):
    again = ModelParams.from_text(preset.to_text())
    assert again == preset
    assert again.to_text() == preset.to_text()


def test_from_text_rejects_unknown_name():
    with pytest.raises(InvalidParameterError, match="unknown parameter"):
        ModelParams.from_text(FULL7D.to_text() + "bogus = 1\n")


def test_from_text_rejects_missing_name():
    text = "\n".join(FULL7D.to_text().splitlines()[:-1]) + "\n"
    with pytest.raises(InvalidParameterError, match="missing"):
        ModelParams.from_text(text)


def test_from_text_rejects_duplicates():
    with pytest.raises(InvalidParameterError, match="duplicate"):
        ModelParams.from_text(FULL7D.to_text() + "g_L = 3\n")


@pytest.mark.parametrize("changes", [
    {"g_l": -1.0}, {"c": 0.0}, {"t_n": 0.0}, {"tau_s": -5.0},
    {"k_na": 0.0}, {"k": -1.0}, {"sigma_n": 0.0},
    # the gate slopes and time constants are guarded here alone
    {"sigma_h": 0.0}, {"sigma_m": 0.0}, {"sigma_s": 0.0}, {"sigma_can": 0.0},
    {"t_h": 0.0}, {"t_m": -1.0},
])
def test_invariants_rejected(changes):
    with pytest.raises(InvalidParameterError):
        FULL7D.override(**changes)
