import numpy as np
import pytest

from burstlab.bifurcation import (DEFAULT_CA_WINDOW, DEFAULT_NA_RANGE,
                                  _V_GRID, BifCurve, _root_brackets, eigen,
                                  equilibrium_count, find_equilibria,
                                  hopf_test, read_curves, trace_fold_curve,
                                  trace_hopf_curve, verify_snic,
                                  write_curves)
from burstlab.model import ReducedFast

from oracles import (fold_ca_oracle, fold_equilibrium, hopf_ca_oracle,
                     rhs_fast4, rhs_fast7, scalar_relambda,
                     scalar_root_brackets)


def test_three_equilibria_left_of_snic(reduced, curves2):
    snic, _ = curves2
    na = 5.5
    slow = (snic.ca_at(na) - 0.05, na)
    eqs = find_equilibria(reduced, slow)
    assert len(eqs) == 3
    assert sum(e.stable for e in eqs) == 1
    # the stable one is the hyperpolarized branch
    assert eqs[0].stable and eqs[0].v < -50.0
    assert all(e.residual < 1e-10 for e in eqs)


def test_single_unstable_equilibrium_between_curves(reduced, curves2):
    snic, ah = curves2
    na = 5.5
    slow = (0.5 * (snic.ca_at(na) + ah.ca_at(na)), na)
    eqs = find_equilibria(reduced, slow)
    assert len(eqs) == 1
    assert not eqs[0].stable


def test_single_stable_equilibrium_right_of_ah(reduced, curves2):
    _, ah = curves2
    na = 5.5
    eqs = find_equilibria(reduced, (ah.ca_at(na) + 0.1, na))
    assert len(eqs) == 1
    assert eqs[0].stable


def test_eigen_closed_form_matches_qr(reduced):
    eqs = find_equilibria(reduced, (0.2, 5.5))
    for eq in eqs:
        closed = sorted(eigen(reduced, eq.state, eq.slow),
                        key=lambda z: (z.real, z.imag))
        jac = np.array(reduced.jacobian(eq.state, eq.slow))
        ref = sorted(np.linalg.eigvals(jac), key=lambda z: (z.real, z.imag))
        assert np.allclose(closed, ref, rtol=1e-10, atol=1e-12)


def test_fold_curve_defining_conditions(reduced, curves2):
    snic, _ = curves2
    assert snic.kind == "SNIC"
    for i in range(0, len(snic), 25):
        slow = (snic.ca[i], snic.na[i])
        eq = fold_equilibrium(reduced, slow)
        assert eq is not None and eq.residual < 1e-10
        # one near-zero real eigenvalue at the fold
        assert min(abs(z) for z in eq.eigenvalues) < 1e-6


@pytest.mark.parametrize("curves", ["curves2", "curves5"])
def test_curve_residuals_vanish(curves, request):
    # |det J| on the fold curve and |Re| of the pair on the Hopf curve, at
    # every node over CURVE_RANGES, vanish to rounding
    snic, ah = request.getfixturevalue(curves)
    assert (snic.residual < 1e-12).all()
    assert (ah.residual < 1e-12).all()


def test_fold_crossing_changes_equilibrium_count(reduced, curves2):
    snic, _ = curves2
    for na in (5.2, 5.6, 6.0):
        ca = snic.ca_at(na)
        assert equilibrium_count(reduced, (ca - 0.01, na)) == 3
        assert equilibrium_count(reduced, (ca + 0.01, na)) == 1


def test_hopf_curve_defining_conditions(reduced, curves2):
    _, ah = curves2
    assert ah.kind == "AH"
    for i in range(0, len(ah), 40):
        eqs = find_equilibria(reduced, (ah.ca[i], ah.na[i]))
        top = eqs[-1]
        pair = [z for z in top.eigenvalues if abs(z.imag) > 1e-9]
        assert pair and abs(max(z.real for z in pair)) < 1e-6


def test_hopf_real_part_signs(reduced, curves2):
    _, ah = curves2
    na = 5.5
    ca = ah.ca_at(na)
    assert hopf_test(reduced, (ca - 0.02, na)) > 0
    assert hopf_test(reduced, (ca + 0.02, na)) < 0


def test_hopf_sign_flip_normal_probes(reduced, curves2):
    _, ah = curves2
    rng = np.random.default_rng(11)
    idx = rng.integers(1, len(ah) - 1, size=50)
    for i in idx:
        na = float(ah.na[i])
        ca = ah.ca_at(na)
        left = hopf_test(reduced, (ca - 1e-3, na))
        right = hopf_test(reduced, (ca + 1e-3, na))
        assert left is not None and right is not None
        assert left > 0 > right


def test_ah_right_of_snic_everywhere(curves2, curves5):
    for snic, ah in (curves2, curves5):
        shared = [na for na in snic.na if ah.na[0] <= na <= ah.na[-1]]
        assert shared
        assert all(ah.ca_at(na) > snic.ca_at(na) for na in shared)


def test_equilibrium_count_partition(reduced, curves2):
    snic, _ = curves2
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(200):
        ca = rng.uniform(-0.1, 1.2)
        na = rng.uniform(4.8, 6.4)
        offset = snic.horizontal_offset(ca, na)
        if abs(offset) < 1e-2 or na < snic.na[0]:
            continue    # margin band and beyond-curve rows excluded
        count = equilibrium_count(reduced, (ca, na))
        assert count == (3 if offset < 0 else 1), (ca, na, count)
        checked += 1
    assert checked > 120


def _slow_samples(seed, n=300):
    rng = np.random.default_rng(seed)
    return zip(rng.uniform(*DEFAULT_CA_WINDOW, size=n),
               rng.uniform(*DEFAULT_NA_RANGE, size=n))


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_array_scan_matches_scalar_scan(model, request):
    # the array scan, the equilibria solved in its brackets and hopf_test
    # against the scalar scan, the six-current rhs and Newton; on the
    # Na = 12 row the reduced model's depolarized equilibrium is a node
    fast = request.getfixturevalue(model)
    rhs = rhs_fast4 if fast.dim == 2 else rhs_fast7
    re_tol = 1e-12 if fast.dim == 2 else 1e-7   # the oracle's FD Jacobian
    extra = [(ca, 12.0) for ca in (-0.2, 0.0, 0.8, 1.6)]
    nodes = 0
    for slow in [*_slow_samples(17), *extra]:
        g = fast.g_array(_V_GRID, slow)
        ref = np.array([fast.rhs(fast.slaved(v), slow)[0] for v in _V_GRID])
        assert np.all(np.abs(g - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))
        brackets = scalar_root_brackets(fast, slow)
        assert _root_brackets(fast, slow) == brackets
        eqs = find_equilibria(fast, slow)
        assert len(eqs) == len(brackets)
        for eq in eqs:
            assert max(map(abs, rhs(eq.state, slow, fast.params))) < 1e-9, slow
        re, re_ref = hopf_test(fast, slow), scalar_relambda(fast, slow)
        assert (re is None) == (re_ref is None), slow
        if re is None:
            nodes += 1
        else:
            assert abs(re - re_ref) <= re_tol, slow
    assert nodes == (2 if fast.dim == 2 else 0)


def test_equilibrium_count_on_subclass_overriding_rhs(reduced):
    class Sub(ReducedFast):
        def rhs(self, y, slow):
            return super().rhs(y, slow)

    sub = Sub(reduced.params)
    counts = set()
    for slow in _slow_samples(23):
        count = equilibrium_count(sub, slow)
        assert count == equilibrium_count(reduced, slow)
        assert count == len(scalar_root_brackets(sub, slow))
        counts.add(count)
    assert counts == {1, 3}


def test_fold_against_bisection_oracle(reduced, curves2):
    snic, _ = curves2
    na = 5.85
    assert abs(snic.ca_at(na) - fold_ca_oracle(reduced, na)) < 1e-3


def test_hopf_against_sign_scan_oracle(reduced, curves2):
    _, ah = curves2
    na = 5.85
    assert abs(ah.ca_at(na) - hopf_ca_oracle(reduced, na)) < 1e-3


def test_full_curves_against_oracles(full, curves5):
    snic, ah = curves5
    na = 5.35
    assert abs(snic.ca_at(na) - fold_ca_oracle(full, na)) < 1e-3
    assert abs(ah.ca_at(na) - hopf_ca_oracle(full, na)) < 1e-3


def test_truncation_flags(curves2, curves5):
    # over CURVE_RANGES both folds start only where the three-equilibria
    # wedge opens, and the reduced AH curve leaves the Ca window at high Na
    flags = [(c.truncated_low, c.truncated_high) for c in (*curves2, *curves5)]
    assert flags == [(True, False), (False, True), (True, False), (False, False)]


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_curve_nodes_do_not_depend_on_range(model, request):
    # a node traced alone gives the same Ca, bit for bit, as in the full trace
    fast = request.getfixturevalue(model)
    curves = request.getfixturevalue("curves2" if model == "reduced" else "curves5")
    for curve, trace in zip(curves, (trace_fold_curve, trace_hopf_curve)):
        for i in np.linspace(0, len(curve) - 1, 8).astype(int):
            na = float(curve.na[i])
            assert trace(fast, na_range=(na, na)).ca.tolist() == [curve.ca[i]]


def test_verify_snic_positive(reduced, curves2):
    snic, _ = curves2
    chk = verify_snic(reduced, (snic.ca_at(5.2), 5.2))
    assert chk.ok
    assert len(chk.periods) == 4
    assert all(b > a for a, b in zip(chk.periods, chk.periods[1:]))
    assert chk.periods[-1] > 100.0


def test_verify_snic_negative_control(reduced, curves2):
    # a Hopf point is not a SNIC: offsets land on the stable-focus side
    _, ah = curves2
    chk = verify_snic(reduced, (ah.ca_at(5.2), 5.2))
    assert not chk.ok
    assert chk.reason


def test_curve_csv_round_trip(tmp_path, curves2):
    snic, ah = curves2
    out = tmp_path / "curves.csv"
    write_curves(out, snic, ah)
    back = read_curves(out)
    assert set(back) == {"SNIC", "AH"}
    assert np.allclose(back["SNIC"].ca, snic.ca)
    assert np.allclose(back["SNIC"].na, snic.na)
    assert np.allclose(back["AH"].residual, ah.residual)


def test_signed_distance_vertical_polyline():
    curve = BifCurve(kind="AH", ca=np.full(5, 0.3),
                     na=np.linspace(5.0, 6.0, 5),
                     residual=np.zeros(5))
    assert curve.signed_distance((0.4, 5.5)) == pytest.approx(0.1)
    assert curve.signed_distance((0.2, 5.5)) == pytest.approx(-0.1)
    # end extension: beyond the traced Na range the sign still holds
    assert curve.signed_distance((0.4, 6.8)) == pytest.approx(0.1)
    assert curve.signed_distance((0.2, 4.2)) == pytest.approx(-0.1)
    assert curve.horizontal_offset(0.4, 6.8) == pytest.approx(0.1)


def test_signed_distance_sign_matches_offset(curves2):
    snic, ah = curves2
    rng = np.random.default_rng(5)
    for _ in range(100):
        ca = rng.uniform(-0.1, 0.6)
        na = rng.uniform(4.3, 7.0)
        for curve in (snic, ah):
            off = curve.horizontal_offset(ca, na)
            sd = curve.signed_distance((ca, na))
            if abs(off) > 1e-6:
                assert np.sign(off) == np.sign(sd)
            assert abs(sd) <= abs(off) + 1e-12


def test_curve_requires_increasing_na():
    with pytest.raises(ValueError):
        BifCurve(kind="SNIC", ca=np.zeros(3), na=np.array([5.0, 5.0, 5.1]),
                 residual=np.zeros(3))
