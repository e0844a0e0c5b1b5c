import dataclasses
import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from coalition_lp.election import (
    antiplurality, borda, k_approval, normalize, plurality, three_candidate,
)
from coalition_lp.asymptotics import (
    GridTooCoarse, Verdict, convergence_experiment, convergence_from_csv,
    convergence_to_csv, curve_from_csv, curve_to_csv, dominates, gap_cdf,
    gw_curve, isotonic, limit_model, plateau_probability, sample_vw,
    sample_vw_batch, vw_from_z,
)


def test_limit_model_coefficients():
    m = limit_model(borda(3))
    assert m.sigma == pytest.approx(math.sqrt(1 / 6))
    assert m.c_w == pytest.approx(1.0)
    m4 = limit_model(borda(4))
    assert m4.diag_coeff_sq == Fraction(5, 12)
    assert m4.c_w == pytest.approx(math.sqrt(5 / 12))
    assert limit_model(plurality(3)).c_w == pytest.approx(1 / math.sqrt(3))
    assert limit_model(k_approval(5, 2)).diag_coeff_sq == Fraction(6, 20)
    assert limit_model(borda(5)).diag_coeff_sq == Fraction(30, 108)


def test_limit_model_shapes():
    anti = limit_model(antiplurality(3))
    assert anti.has_ray and anti.c_w is None
    assert anti.diag_coeff_sq == Fraction(1, 3)
    hard = limit_model(three_candidate(Fraction(1, 4)))
    assert not hard.has_ray and hard.c_w is None
    assert len(hard.dots) == 2
    easy = limit_model(three_candidate(Fraction(3, 4)))
    assert easy.c_w == pytest.approx(math.sqrt((1 - 0.75 + 0.5625) / (3 * 0.5625)))


def test_vw_examples():
    m = limit_model(borda(3))
    assert vw_from_z(m, [1, 0, -1]) == pytest.approx(1.0)
    assert vw_from_z(m, [0.5, 0.5, -1.0]) == 0.0
    anti = limit_model(antiplurality(3))
    assert vw_from_z(anti, [2, -1, -1]) == math.inf
    assert vw_from_z(anti, [1, 1, -2]) < math.inf
    assert sample_vw(m, 4) == sample_vw(m, 4)


def test_coefficient_form_is_pathwise():
    # on coefficient-form rules the diagonal vertex wins for every draw,
    # so the sampled variable is exactly c_w times the top-two gap
    for rule in (borda(3), plurality(4), k_approval(5, 2), three_candidate(Fraction(4, 5))):
        model = limit_model(rule)
        rng = np.random.default_rng(42)
        vals = sample_vw_batch(model, rng, 2000)
        z = np.random.default_rng(42).standard_normal((2000, rule.m))
        z.sort(axis=1)
        gaps = z[:, -1] - z[:, -2]
        assert np.allclose(vals, model.c_w * gaps)


def test_scale_equivariance():
    model = limit_model(borda(4))
    doubled = dataclasses.replace(model, scaled_vertices=2.0 * model.scaled_vertices)
    a = sample_vw_batch(model, np.random.default_rng(9), 500)
    b = sample_vw_batch(doubled, np.random.default_rng(9), 500)
    assert np.allclose(b, 2.0 * a)


def test_isotonic_pooling():
    assert isotonic([1.0, 3.0, 2.0]) == [1.0, 2.5, 2.5]
    assert isotonic([3.0, 1.0]) == [2.0, 2.0]
    assert isotonic([1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]


def test_gw_curve_validation():
    model = limit_model(borda(3))
    with pytest.raises(ValueError):
        gw_curve(model, [1.0, 0.5], 20_000, 0)
    with pytest.raises(ValueError):
        gw_curve(model, [0.5, 1.0], 5_000, 0)


def test_gw_curve_matches_quadrature():
    model = limit_model(borda(3))
    grid = [0.05, 0.5, 1.0, 2.0]
    curve = gw_curve(model, grid, 400_000, seed=12)
    expect = [gap_cdf(v / model.c_w, 3) for v in grid]
    assert expect[2] == pytest.approx(0.66039, abs=2e-4)
    assert expect[0] == pytest.approx(0.041961, abs=2e-4)
    for got, want in zip(curve.g_hat, expect):
        assert got == pytest.approx(want, abs=0.004)
    assert curve.plateau == 1.0
    assert all(x <= y for x, y in zip(curve.g_hat, curve.g_hat[1:]))


def test_gw_curve_two_approval_quadrature():
    rule = k_approval(4, 2)
    model = limit_model(rule)
    curve = gw_curve(model, [1.0], 400_000, seed=12)
    assert gap_cdf(1.0 / model.c_w, 4) == pytest.approx(0.926559, abs=2e-4)
    assert curve.g_hat[0] == pytest.approx(0.926559, abs=0.004)


def test_gw_curve_deterministic_across_threads():
    model = limit_model(three_candidate(Fraction(1, 3)))
    a = gw_curve(model, [0.5, 1.0], 600_000, seed=3, threads=1)
    b = gw_curve(model, [0.5, 1.0], 600_000, seed=3, threads=5)
    assert a == b
    c = gw_curve(model, [0.5, 1.0], 600_000, seed=4, threads=2)
    assert c != a


def test_plateau_independent_of_threads():
    assert plateau_probability(4, 600_000, seed=8, threads=1) == plateau_probability(
        4, 600_000, seed=8, threads=2)


def test_gw_curve_joins_its_workers():
    before = threading.active_count()
    gw_curve(limit_model(borda(3)), [0.5, 1.0], 600_000, seed=3, threads=2)
    assert threading.active_count() == before


def test_antiplurality_plateaus():
    m3 = gw_curve(limit_model(antiplurality(3)), [1.0], 400_000, seed=6)
    assert m3.plateau == pytest.approx(0.5, abs=0.005)
    m4 = gw_curve(limit_model(antiplurality(4)), [1.0], 400_000, seed=6)
    assert m4.plateau == pytest.approx(0.82482, abs=0.005)
    p3, hw = plateau_probability(3, 400_000, seed=8)
    assert p3 == pytest.approx(0.5, abs=0.005) and hw < 0.002
    p4, _ = plateau_probability(4, 400_000, seed=8)
    assert p4 == pytest.approx(1 - 0.82482, abs=0.005)
    p6, _ = plateau_probability(6, 200_000, seed=8)
    assert p6 < 0.02


def test_curve_csv_round_trip():
    curve = gw_curve(limit_model(borda(3)), [0.5, 1.0], 50_000, seed=1)
    text = curve_to_csv(curve, "borda", 3, 1)
    meta, back = curve_from_csv(text)
    assert meta == {"rule": "borda", "m": 3, "seed": 1, "samples": 50_000,
                    "plateau": float(f"{curve.plateau:.6f}")}
    assert curve_to_csv(back, "borda", 3, 1) == text
    for bad in ("v,g\n0.5,0.1\n", "", text.splitlines()[0] + "\n"):
        with pytest.raises(ValueError):
            curve_from_csv(bad)


def test_dominance_analytic_pairs():
    r = dominates(plurality(3), borda(3))
    assert r.verdict is Verdict.DOMINATED_BY
    assert r.method == "analytic-coefficient"
    assert dominates(borda(3), plurality(3)).verdict is Verdict.DOMINATES
    assert dominates(borda(5), k_approval(5, 2)).verdict is Verdict.DOMINATED_BY
    assert dominates(borda(4), borda(4)).verdict is Verdict.INDISTINGUISHABLE
    # easier manipulation thresholds order the one-parameter family
    assert dominates(three_candidate(Fraction(3, 5)),
                     three_candidate(Fraction(9, 10))).verdict is Verdict.DOMINATES


def test_dominance_with_unbounded_rule():
    assert dominates(plurality(4), antiplurality(4)).verdict is Verdict.DOMINATED_BY
    assert dominates(antiplurality(4), plurality(4)).verdict is Verdict.DOMINATES
    assert dominates(antiplurality(3), borda(3)).verdict is Verdict.INCOMPARABLE
    assert dominates(borda(3), antiplurality(3)).verdict is Verdict.INCOMPARABLE
    for rule in (plurality(3), borda(3), three_candidate(Fraction(2, 3))):
        r = dominates(rule, antiplurality(3))
        assert r.verdict is not Verdict.DOMINATES


def test_dominance_monte_carlo_route():
    hard_a = three_candidate(Fraction(1, 4))
    hard_b = three_candidate(Fraction(2, 5))
    r = dominates(hard_a, hard_b, samples=100_000, seed=5)
    assert r.method == "monte-carlo"
    assert r.verdict is Verdict.INCOMPARABLE
    near = dominates(three_candidate(0.3), three_candidate(0.3 + 1e-9),
                     samples=20_000, seed=5)
    assert near.method == "monte-carlo"
    assert near.verdict is Verdict.INDISTINGUISHABLE


def test_dominance_grid_guard():
    with pytest.raises(GridTooCoarse):
        dominates(three_candidate(0.25), three_candidate(0.4),
                  grid=[0.5, 1.0], samples=20_000)
    with pytest.raises(ValueError):
        dominates(borda(3), borda(4))


SMALL_V_GRID = (0.025, 0.05, 0.075, 0.1)
SMALL_V_TABLE = {
    "borda": (0.021070, 0.041961, 0.062667, 0.083182),
    "plurality": (0.036381, 0.072212, 0.107461, 0.142097),
    "easy": (0.030308, 0.060240, 0.089775, 0.118897),
}


def test_small_coalition_resistance_m3():
    # near v = 0 the linear weight vector is the hardest m=3 rule to nudge
    curves = {}
    for name, rule in [("borda", borda(3)), ("plurality", plurality(3)),
                       ("easy", three_candidate(Fraction(3, 4)))]:
        curve = gw_curve(limit_model(rule), SMALL_V_GRID, 10_000_000, seed=21)
        curves[name] = curve
        for got, want in zip(curve.g_hat, SMALL_V_TABLE[name]):
            assert got == pytest.approx(want, abs=0.002)
    for name in ("plurality", "easy"):
        for j in range(len(SMALL_V_GRID)):
            gb, hb = curves["borda"].g_hat[j], curves["borda"].ci_half_width[j]
            go, ho = curves[name].g_hat[j], curves[name].ci_half_width[j]
            assert gb + hb < go - ho


def test_small_coalition_resistance_flips_at_m5():
    bo = gw_curve(limit_model(borda(5)), SMALL_V_GRID, 10_000_000, seed=22)
    ap = gw_curve(limit_model(k_approval(5, 2)), SMALL_V_GRID, 10_000_000, seed=23)
    for j in range(len(SMALL_V_GRID)):
        assert ap.g_hat[j] + ap.ci_half_width[j] < bo.g_hat[j] - bo.ci_half_width[j]


def test_convergence_experiment():
    pts = convergence_experiment(borda(3), [100, 10_000], trials=20_000,
                                 seed=4, limit_samples=400_000)
    assert [p.n for p in pts] == [100, 10_000]
    assert pts[1].ks <= pts[0].ks
    assert pts[1].ks < 0.05
    assert all(p.unreachable_fraction == 0 for p in pts)
    anti = convergence_experiment(antiplurality(3), [400], trials=10_000,
                                  seed=4, limit_samples=200_000)
    assert 0.3 < anti[0].unreachable_fraction < 0.7


def test_convergence_csv_round_trip():
    pts = convergence_experiment(borda(3), [100], trials=5_000, seed=1,
                                 limit_samples=50_000)
    text = convergence_to_csv(pts, "borda", 3, 1, 5_000)
    meta, back = convergence_from_csv(text)
    assert meta["trials"] == 5_000
    assert back[0].n == 100
    assert back[0].trials_used == pts[0].trials_used
    for bad in ("", text.splitlines()[0] + "\n"):
        with pytest.raises(ValueError):
            convergence_from_csv(bad)
