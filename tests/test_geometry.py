import math

import numpy as np
import pytest

import diamondqi as dq
from diamondqi.invariants import REGION_BATTERY
from test_invariants import lookup


def test_chart_derived_quantities():
    ch = dq.DiamondChart(1.5, 2.5)
    assert ch.alpha_tilde == 2 * 1.5 / 2.5
    assert ch.kappa * ch.lam == 4.0
    assert ch.accel * ch.alpha == 2.0
    assert ch.temperature == 2.0 / (math.pi * 3.0)


@pytest.mark.parametrize("alpha,lam", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_chart_rejects_bad_parameters(alpha, lam):
    with pytest.raises(ValueError):
        dq.DiamondChart(alpha, lam)


def test_rindler_origin_maps_to_left_vertex(chart):
    p = dq.rindler_to_diamond(chart, dq.EventCoords.rindler(0.0, 0.0))
    assert (p.c1, p.c2) == (0.0, -1.0)


def test_rindler_unit_point_maps_to_center(chart):
    p = dq.rindler_to_diamond(chart, dq.EventCoords.rindler(0.0, chart.alpha_tilde))
    assert abs(p.c1) == 0.0 and abs(p.c2) == 0.0


def test_diamond_center_maps_to_rindler_unit(chart):
    p = dq.diamond_to_rindler(chart, dq.EventCoords.diamond(0.0, 0.0))
    assert (p.c1, p.c2) == (0.0, chart.alpha_tilde)


def test_right_vertex_is_singular(chart):
    with pytest.raises(dq.SingularPoint):
        dq.diamond_to_rindler(chart, dq.EventCoords.diamond(0.0, chart.alpha))


def _special_conformal(t, x, rho):
    # standard K(rho) with b = (0, -rho), signature (-, +)
    xx = -t * t + x * x
    den = 1.0 + 2.0 * rho * x + rho * rho * xx
    return t / den, (x + rho * xx) / den


def test_inverse_map_against_elementary_composition():
    # compose T(alpha), K(-1/(2 alpha)), Lambda(1/lam) step by step
    alpha, lam = 1.0, 1.0
    ch = dq.DiamondChart(alpha, lam)
    t, x = alpha / 2.0, 0.0
    tt, tx = _special_conformal(t, x + alpha, -1.0 / (2.0 * alpha))
    tt, tx = tt / lam, tx / lam
    got = dq.diamond_to_rindler(ch, dq.EventCoords.diamond(t, x))
    assert math.isclose(got.c1, tt, rel_tol=1e-14)
    assert math.isclose(got.c2, tx, rel_tol=1e-14)


def test_forward_map_against_elementary_composition(rng):
    # M = T(-alpha) o K(1/(2 alpha)) o Lambda(lam) on random right-wedge points
    alpha, lam = 1.3, 2.7
    ch = dq.DiamondChart(alpha, lam)
    for _ in range(50):
        tt = rng.uniform(-2, 2)
        tx = abs(tt) + rng.uniform(0.1, 3)
        t1, x1 = lam * tt, lam * tx
        t2, x2 = _special_conformal(t1, x1, 1.0 / (2.0 * alpha))
        expect = (t2, x2 - alpha)
        got = dq.rindler_to_diamond(ch, dq.EventCoords.rindler(tt, tx))
        assert math.isclose(got.c1, expect[0], rel_tol=1e-12, abs_tol=1e-13)
        assert math.isclose(got.c2, expect[1], rel_tol=1e-12, abs_tol=1e-13)


test_round_trip_battery_all_wedges = lookup("geometry-round-trip")


def test_lightcone_map_center(chart):
    vt, ut = dq.lightcone_map(chart, 0.0, 0.0)
    assert (vt, ut) == (chart.alpha_tilde, -chart.alpha_tilde)


def test_lightcone_map_half_alpha():
    ch = dq.DiamondChart(1.0, 2.0)
    vt, ut = dq.lightcone_map(ch, 0.5, -0.5)
    assert math.isclose(vt, 3.0 * ch.alpha_tilde, rel_tol=1e-15)
    assert math.isclose(ut, -3.0 * ch.alpha_tilde, rel_tol=1e-15)


def test_lightcone_map_interior_sweep_stays_right(chart):
    for v in np.linspace(-0.99, 0.99, 199):
        vt, _ = dq.lightcone_map(chart, v, 0.0)
        assert vt > 0


def test_lightcone_map_agrees_with_full_map(chart, rng):
    for _ in range(100):
        t, x = rng.uniform(-2.5, 2.5, 2)
        V, U = t + x, t - x
        if min(abs(1 - V), abs(1 + U)) < 1e-3 or abs((x - 1) ** 2 - t * t) < 1e-3:
            continue
        vt, ut = dq.lightcone_map(chart, V, U)
        p = dq.diamond_to_rindler(chart, dq.EventCoords.diamond(t, x))
        assert math.isclose(vt, p.c1 + p.c2, rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(ut, p.c1 - p.c2, rel_tol=1e-10, abs_tol=1e-12)


def test_lightcone_map_singular_lines(chart):
    with pytest.raises(dq.SingularPoint):
        dq.lightcone_map(chart, chart.alpha, 0.0)
    with pytest.raises(dq.SingularPoint):
        dq.lightcone_map(chart, 0.0, -chart.alpha)


@pytest.mark.parametrize("point,region,wedge", REGION_BATTERY)
def test_region_classification(chart, point, region, wedge):
    got_region, tag = dq.classify_region(chart, dq.EventCoords.diamond(*point))
    assert got_region is region
    assert tag.wedge is wedge


def test_classification_matches_rindler_sign_table(chart, rng):
    for _ in range(300):
        t, x = rng.uniform(-2.5, 2.5, 2)
        V, U = t + x, t - x
        if min(abs(abs(V) - 1), abs(abs(U) - 1)) < 1e-6:
            continue
        _, tag = dq.classify_region(chart, dq.EventCoords.diamond(t, x))
        vt, ut = dq.lightcone_map(chart, V, U)
        expect = {(True, False): dq.Wedge.R, (False, True): dq.Wedge.L,
                  (True, True): dq.Wedge.F, (False, False): dq.Wedge.P}[(vt > 0, ut > 0)]
        assert tag.wedge is expect


def test_boundary_returns_boundary(chart):
    region, tag = dq.classify_region(chart, dq.EventCoords.diamond(0.5, 0.5))
    assert region is dq.Region.BOUNDARY and tag is None


def test_diamond_coords_center(chart):
    e = dq.diamond_coords(chart, dq.EventCoords.diamond(0.0, 0.0))
    assert (e.c1, e.c2, e.epsilon) == (0.0, 0.0, 1)


def test_diamond_coords_exterior_patch(chart):
    e = dq.diamond_coords(chart, dq.EventCoords.diamond(0.0, 2.0))
    assert e.epsilon == -1 and e.region is dq.Region.DBAR
    back = dq.eta_xi_to_diamond(chart, e)
    assert math.isclose(back.c2, 2.0, rel_tol=1e-12)


test_diamond_coords_lambda_independent = lookup("geometry-lambda-independence")
test_diamond_coords_tanh_relation = lookup("geometry-tanh-relation")


def test_diamond_coords_on_horizon_raises(chart):
    with pytest.raises(dq.OnHorizon):
        dq.diamond_coords(chart, dq.EventCoords.diamond(0.25, 0.75))


def test_diamond_coords_fp_image_unsupported(chart):
    with pytest.raises(dq.UnsupportedRegion):
        dq.diamond_coords(chart, dq.EventCoords.diamond(0.5, 1.2))


def test_eta_xi_composite_route_consistency(chart, rng):
    from diamondqi.geometry import rindler_to_eta_xi

    for _ in range(100):
        t, x = rng.uniform(-0.8, 0.8, 2)
        if abs(t) + abs(x) > 0.9:
            continue
        direct = dq.diamond_coords(chart, dq.EventCoords.diamond(t, x))
        composite = rindler_to_eta_xi(chart, dq.diamond_to_rindler(chart, dq.EventCoords.diamond(t, x)))
        assert abs(direct.c1 - composite.c1) < 1e-12
        assert abs(direct.c2 - composite.c2) < 1e-12
        assert composite.epsilon == 1


test_boundary_lines_map_to_horizon_lines = lookup("geometry-boundary-lines")
test_horizon_worldline_compression = lookup("geometry-horizon-worldline")


def test_conformal_factor_center_and_constraint(chart):
    assert dq.conformal_factor(chart, dq.EventCoords.rindler(0.0, chart.alpha_tilde)) == 4.0
    for lam in (0.5, 1.0, 2.0, 5.0):
        ch = dq.DiamondChart(1.0, lam)
        assert ch.lam * ch.kappa == 4.0


def test_conformal_factor_lightcone_identity(chart, rng):
    for _ in range(100):
        tt = rng.uniform(-2, 2)
        tx = abs(tt) + rng.uniform(0.05, 3)
        p = dq.EventCoords.rindler(tt * chart.alpha_tilde, tx * chart.alpha_tilde)
        om = dq.conformal_factor(chart, p)
        q = dq.rindler_to_diamond(chart, p)
        V, U = q.lightcone()
        assert math.isclose(om, 4.0 / ((1 + U) * (1 - V)), rel_tol=1e-9)


test_metric_pullback = lookup("geometry-metric-pullback")


def test_convert_all_frame_pairs(chart):
    p = dq.EventCoords.diamond(0.2, -0.3)
    for to in (dq.Frame.RINDLER, dq.Frame.ETA_XI):
        q = dq.convert(chart, p, to)
        back = dq.convert(chart, q, dq.Frame.DIAMOND)
        assert math.isclose(back.c1, 0.2, abs_tol=1e-13)
        assert math.isclose(back.c2, -0.3, abs_tol=1e-13)
