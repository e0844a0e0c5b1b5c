import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coalition_lp import asymptotics
from coalition_lp.election import (
    InvalidInput, MTooLarge, antiplurality, borda, k_approval, normalize, parse_rule, plurality,
    sample_scoreboards, three_candidate,
)
from coalition_lp.asymptotics import (
    BLOCK, CELLS, CHUNK, DEFAULT_GRID, GridTooCoarse, Verdict,
    _merge_exchange, _top_two_mean,
    convergence_experiment, convergence_from_csv, convergence_to_csv, curve_from_csv,
    curve_to_csv, dominates, gap_cdf, gw_curve, isotonic, limit_model, plateau_probability,
    resolve_threads, sample_vw, sample_vw_batch, vw_from_z,
)


def test_limit_model_coefficients():
    m = limit_model(borda(3))
    assert borda(3).sigma == pytest.approx(math.sqrt(1 / 6))
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


def test_float_borda_has_the_exact_borda_limit():
    """Borda at m = 4 written in floats reads its weights exactly: one diagonal dot, Borda's c_w."""
    rule = normalize((3.0, 2.0, 1.0, 0.0))
    model = limit_model(rule)
    assert len(model.dots) == 1 and model.dots[0][0] == model.dots[0][1]
    assert model.c_w is not None and abs(model.c_w - limit_model(borda(4)).c_w) <= 1e-15
    assert dominates(rule, plurality(4)).method == "analytic-coefficient"


def test_float_coefficient_form_rule_keeps_its_c_w():
    """(1.0, 0.6, 0.2, 0.0): its diagonal is compared with its dots in one exact arithmetic."""
    model = limit_model(normalize((1.0, 0.6, 0.2, 0.0)))
    exact = limit_model(normalize((1, Fraction(3, 5), Fraction(1, 5), 0)))
    assert exact.c_w is not None and model.c_w == pytest.approx(exact.c_w, rel=1e-15)


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


def all_vertex_draws(model, rng, size):
    """The limit variable with every vertex of the scaled polytope evaluated."""
    z = rng.standard_normal((size, model.m))
    z.sort(axis=1)
    zbar = z.mean(axis=1)
    a, b = z[:, -1] - zbar, zbar - z[:, -2]
    verts = model.scaled_vertices
    vals = np.max(np.outer(a, verts[:, 0]) + np.outer(b, verts[:, 1]), axis=1)
    if model.has_ray:
        vals[b > 0] = np.inf
    return vals


@pytest.mark.parametrize("rule", [
    borda(3), borda(8), plurality(4), normalize([1, 1, Fraction(1, 2), 0]),
    antiplurality(3), antiplurality(4), three_candidate(Fraction(1, 4)),
    normalize([1, Fraction(5, 6), Fraction(1, 3), Fraction(1, 4), 0]),
    normalize([1.0, 0.6, 0.2, 0.0]),
], ids=lambda rule: "(" + ", ".join(map(str, rule.weights)) + ")")
def test_cone_optimal_vertices_give_every_draw(rule):
    # vertices off the cone-optimal set never change a draw, to the last bit
    model = limit_model(rule)
    fast = sample_vw_batch(model, np.random.default_rng(31), 1 << 16)
    assert np.array_equal(fast, all_vertex_draws(model, np.random.default_rng(31), 1 << 16))


# sha256 of curve_to_csv for one full and one partial chunk (2^18 + 20,000
# draws, seed 17), recorded when every vertex was still evaluated
PINNED_CURVES = {
    "weights:1,1,1/2,0": (normalize([1, 1, Fraction(1, 2), 0]),
                          "8a8fea2442163ff8b73e4d8082f5e149e44832eee52e622f82ba0f8e2500d659"),
    "antiplurality": (antiplurality(4),
                      "f755f65d33c10a510eacf9ff2589c7f7690780b1413aea47c8b8308fdb70010e"),
    "weights:1,3/4,0": (three_candidate(Fraction(1, 4)),
                        "7e12cd28b9492549d55e19bd00c25e07ef697c5298813c2d4f7d73f1ddf38123"),
    "weights:1.0,0.6,0.2,0.0": (normalize([1.0, 0.6, 0.2, 0.0]),
                                "ab4096ea0fd7297807c309505aa0080d50f9833a7591ff31d342e882495a5894"),
}


@pytest.mark.parametrize("label", PINNED_CURVES)
def test_curve_bytes_are_pinned(label):
    rule, digest = PINNED_CURVES[label]
    curve = gw_curve(limit_model(rule), DEFAULT_GRID, (1 << 18) + 20_000, seed=17, threads=2)
    assert hashlib.sha256(curve_to_csv(curve, label, rule.m, 17).encode()).hexdigest() == digest


def test_merge_exchange_sorts_every_zero_one_vector():
    # by the 0-1 principle a network that sorts every 0/1 vector sorts any input
    assert [len(_merge_exchange(m)) for m in range(3, 9)] == [3, 5, 9, 12, 16, 19]
    for m in range(3, 9):
        for bits in itertools.product((0, 1), repeat=m):
            v = list(bits)
            for i, j in _merge_exchange(m):
                v[i], v[j] = min(v[i], v[j]), max(v[i], v[j])
            assert v == sorted(bits)


def sorted_draw(seed, size, m):
    z = np.random.default_rng(seed).standard_normal((size, m))
    z.sort(axis=1)
    return z


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 9, 12])
def test_top_two_mean_is_sort_and_mean(m):
    # the network-sorted blocks and their column sums, joined, must equal numpy to the last bit;
    # each block is copied as it is yielded, since the next block reuses the thread's scratch
    for size in (1, BLOCK - 1, BLOCK + 1, CHUNK + 20_000):
        blocks = [tuple(map(np.copy, block))
                  for block in _top_two_mean(np.random.default_rng(m + size), size, m)]
        assert [len(top) for top, _, _ in blocks] == [BLOCK] * (size // BLOCK) + [size % BLOCK]
        top, second, zbar = (np.concatenate(column) for column in zip(*blocks))
        z = sorted_draw(m + size, size, m)
        assert np.array_equal(top, z[:, -1])
        assert np.array_equal(second, z[:, -2])
        assert np.array_equal(zbar, z.mean(axis=1))


@pytest.mark.parametrize("m", [4, 8])
def test_plateau_count_is_sort_and_mean(m):
    samples = CHUNK + 20_000
    count = 0
    for idx, size in enumerate((CHUNK, 20_000)):
        z = sorted_draw(np.random.SeedSequence((5, idx)), size, m)
        count += int((z[:, -2] < z.mean(axis=1)).sum())
    assert plateau_probability(m, samples, seed=5, threads=2)[0] == count / samples


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


GAP_GRID = [0.05 * i for i in range(121)]


def test_gap_cdf_of_two_is_erf():
    # the top-two gap of two normals is |Z1 - Z2|, and Z1 - Z2 ~ N(0, 2)
    for x, g in zip(GAP_GRID, gap_cdf(GAP_GRID, 2)):
        assert g == pytest.approx(math.erf(x / 2), abs=1e-9)
        assert gap_cdf(x, 2) == g


@pytest.mark.parametrize("m", range(3, 9))
def test_gap_cdf_matches_the_quadrature_in_s(m):
    """The integral in s = t + x, on the s grid, with scipy's normal CDF."""
    from scipy.special import ndtr

    s = np.linspace(-12.0, 12.0, 20001)
    phi = np.exp(-0.5 * s * s) / math.sqrt(2 * math.pi)
    want = [1.0 - m * np.trapezoid(phi * ndtr(s - x) ** (m - 1), s) for x in GAP_GRID]
    assert np.max(np.abs(gap_cdf(GAP_GRID, m) - want)) < 1e-12


BLOCK_RULES = {3: three_candidate(Fraction(1, 3)), 5: antiplurality(5), 8: borda(8)}


@pytest.mark.parametrize("m", sorted(BLOCK_RULES))
def test_block_size_moves_no_bit(m, monkeypatch):
    """Curves, plateaus and raw draws are the same bytes at 2^12, 2^13 and 2^14-row blocks."""
    model = limit_model(BLOCK_RULES[m])
    samples = CHUNK + 12_345  # the last chunk is not a whole number of blocks of any size
    outputs = []
    for block in (1 << 12, 1 << 13, 1 << 14):
        monkeypatch.setattr(asymptotics, "BLOCK", block)
        curve = gw_curve(model, DEFAULT_GRID, samples, seed=(6, m), threads=2)
        draws = sample_vw_batch(model, np.random.default_rng(m), 3 * (1 << 14) + 77)
        outputs.append((curve_to_csv(curve, "rule", m, 6), plateau_probability(m, samples, 6, 2),
                        draws.tobytes()))
    assert np.isinf(np.frombuffer(outputs[0][2])).any() == (m == 5)
    assert outputs[0] == outputs[1] == outputs[2]


# The prelude of the page-fault scripts.  faults(call) prints the minor page
# faults of call() and then waits until the call's workers have left the
# process: a worker that is still exiting holds its malloc arena, and a new
# worker would fault in a fresh one.  A worker that has not left after
# DEADLINE_S fails the script with the count of threads left, instead of
# hanging it.
SETTLE = """
import os, resource, sys, time
import numpy  # counted in: importing it starts OpenBLAS's threads
tasks = len(os.listdir("/proc/self/task"))
DEADLINE_S = 10
def settle():
    deadline = time.monotonic() + DEADLINE_S
    while (left := len(os.listdir("/proc/self/task")) - tasks) > 0:
        if time.monotonic() > deadline:
            sys.exit(f"{left} worker threads still running after {DEADLINE_S} s")
        time.sleep(0.001)
def faults(call):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    settle()
"""

# Prints the minor page faults of four 2^19-draw curves in a row, each after a
# two-batch convergence run when a 4th argument is given.
FAULTS_PER_CURVE = SETTLE + """
from coalition_lp.asymptotics import DEFAULT_GRID, convergence_experiment, gw_curve, limit_model
from coalition_lp.election import parse_rule
model = limit_model(parse_rule(sys.argv[1], int(sys.argv[2])))
for i in range(4):
    if len(sys.argv) > 4:
        convergence_experiment(parse_rule("borda", 5), (100, 1000), 6_553, seed=(3, i),
                               limit_samples=10_000, threads=2)
        settle()
    faults(lambda: gw_curve(model, DEFAULT_GRID, 1 << 19, (3, i), int(sys.argv[3])))
"""

# Prints the minor page faults of three rounds of 2^18-draw calls on the main
# thread: curves at m = 3, 8 and 4, then an m = 5 plateau.
FAULTS_PER_MIXED_CALL = SETTLE + """
from coalition_lp.asymptotics import DEFAULT_GRID, gw_curve, limit_model, plateau_probability
from coalition_lp.election import parse_rule
models = [limit_model(parse_rule(text, m)) for text, m in (("borda", 3), ("borda", 8), ("plurality", 4))]
for i in range(3):
    for model in models:
        faults(lambda: gw_curve(model, DEFAULT_GRID, 1 << 18, (3, i), 1))
    faults(lambda: plateau_probability(5, 1 << 18, (3, i), 1))
"""


def _child_output(script, *args, **env_vars):
    """The words `script` prints in a fresh interpreter that imports this package."""
    src = str(Path(asymptotics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=dict(env, **env_vars),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_settle_fails_on_a_worker_that_never_leaves():
    """A thread that outlives its call fails the fault scripts within their deadline."""
    script = SETTLE + """
import threading
DEADLINE_S = 0.2
threading.Thread(target=time.sleep, args=(60,), daemon=True).start()
settle()
"""
    with pytest.raises(AssertionError, match="1 worker threads still running after 0.2 s"):
        _child_output(script)


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults that glibc's malloc thresholds cause")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("rule,m", [("plurality", 4), ("borda", 8)])
def test_curve_chunks_reuse_their_pages(rule, m, threads):
    """In a fresh process, later curves reuse the pages of earlier ones.

    With 2^14-row blocks the 3rd and 4th calls faulted ~1,000-2,800 pages each
    (plurality(4) at 2 threads, borda(8) at both); at 2^13 rows they fault a few.
    """
    faults = list(map(int, _child_output(FAULTS_PER_CURVE, rule, m, threads)))
    assert max(faults[2:]) < 200, faults


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults that glibc's malloc thresholds cause")
@pytest.mark.parametrize("rule,m", [("plurality", 4), ("borda", 8)])
def test_curves_after_a_convergence_reuse_their_pages(rule, m):
    """A convergence run between 2-thread curves leaves them their pages.

    Scoring each batch as a float copy of its counts times a BLAS product made
    every curve after a convergence fault ~1,400-1,900 pages back in; with
    exact integer sums in batches of CELLS counts they fault a few.
    """
    faults = list(map(int, _child_output(FAULTS_PER_CURVE, rule, m, 2, "converge")))
    assert max(faults[1:]) < 200, faults


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults that glibc's malloc thresholds cause")
def test_calls_at_every_m_share_the_thread_scratch():
    """Curves at m = 3, 8 and 4 and a plateau, in turn on one thread, fault a few pages each.

    Every m <= 8 draws its blocks in the thread's one scratch array, so after
    the first round no call maps a block array of its own.
    """
    faults = list(map(int, _child_output(FAULTS_PER_MIXED_CALL)))
    assert len(faults) == 12 and max(faults[4:]) < 200, faults


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


def test_worker_pool_runs_without_operator_call(monkeypatch):
    """pyproject allows Python 3.10, whose operator module has no call (new in 3.11)."""
    import operator

    monkeypatch.delattr(operator, "call", raising=False)
    assert plateau_probability(4, 600_000, seed=8, threads=2) == plateau_probability(
        4, 600_000, seed=8, threads=1)


def test_threads_default_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("COALITION_LP_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert resolve_threads() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_threads() == 2
    monkeypatch.setenv("COALITION_LP_THREADS", "3")
    assert resolve_threads() == 3


def test_library_calls_refuse_zero_threads():
    """The CLI refuses --threads 0 itself; a library caller gets resolve_threads' error."""
    rule = borda(3)
    for call in (lambda: gw_curve(limit_model(rule), [0.5], 10_000, seed=1, threads=0),
                 lambda: plateau_probability(3, 10_000, seed=1, threads=0),
                 lambda: convergence_experiment(rule, [10], 2, limit_samples=10_000, threads=0)):
        with pytest.raises(InvalidInput, match="threads must be at least 1, got 0"):
            call()


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
    # two distinct rules with one diagonal coefficient, 11/48, tie without sampling
    a, b = normalize([1, Fraction(1, 6), 0, 0]), normalize([1, Fraction(1, 2), 0, 0])
    assert limit_model(a).diag_coeff_sq == limit_model(b).diag_coeff_sq == Fraction(11, 48)
    for r in (dominates(a, b), dominates(b, a)):
        assert (r.verdict, r.method) == (Verdict.INDISTINGUISHABLE, "analytic-coefficient")
        assert r.coefficient_a == r.coefficient_b


# m: Borda's diag_coeff_sq and the largest of k-approval's for k in 1..m-2
REVERSAL = {4: (Fraction(5, 12), Fraction(1, 3)), 5: (Fraction(5, 18), Fraction(3, 10)),
            6: (Fraction(7, 32), Fraction(3, 10)), 7: (Fraction(14, 75), Fraction(2, 7)),
            8: (Fraction(1, 6), Fraction(2, 7))}


@pytest.mark.parametrize("m", sorted(REVERSAL))
def test_borda_loses_to_some_approval_from_m_5(m):
    """The paper's m >= 5 reversal, exactly: Borda dominates every k-approval at m = 4 only.

    k runs over 1..m-2 (k = m-1 is anti-plurality, which has a ray).  Every
    verdict is analytic, from the exact diagonal coefficients; nothing is
    sampled.
    """
    borda_sq, best_sq = REVERSAL[m]
    assert limit_model(borda(m)).diag_coeff_sq == borda_sq
    squares = {k: limit_model(k_approval(m, k)).diag_coeff_sq for k in range(1, m - 1)}
    assert max(squares.values()) == best_sq
    for k, sq in squares.items():
        report = dominates(borda(m), k_approval(m, k))
        assert report.method == "analytic-coefficient"
        assert report.verdict is (Verdict.DOMINATES if borda_sq > sq else Verdict.DOMINATED_BY)
    assert (borda_sq > best_sq) == (m == 4)


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


def test_convergence_independent_of_threads_and_joins_its_workers():
    before = threading.active_count()
    runs = [convergence_experiment(borda(4), [30, 200, 1000], trials=3_000, seed=6,
                                   limit_samples=20_000, threads=threads) for threads in (1, 2, 5)]
    assert threading.active_count() == before
    assert runs[0] == runs[1] == runs[2]
    assert [p.n for p in runs[0]] == [30, 200, 1000]


# sha256 of convergence_to_csv (seed 11, 40,000 limit draws) at threads 1 and 2, recorded
# when every 200,000 profiles were drawn at once; the trials fill no whole number of batches
PINNED_CONVERGENCE = {
    ("borda", 3): ((50, 1001), 180_001,
                   "78d000d255e786bee50c5a1d28a8ffb187438b8208f32e9012c67116cc5be59c"),
    ("weights:1,5/6,1/3,1/4,0", 5): ((40, 333), 9_001,
                                     "a0b6b8073dea0f05ded449f6af51d7fef0827d2f47cfc054f96fa0af5af28fef"),
    ("borda", 7): ((60,), 3_001,
                   "80c8e8bebff9d76e16ff82cef72d63d2c6a33e010e25339c884ea843ddab4bde"),
}


@pytest.mark.parametrize("label,m", PINNED_CONVERGENCE, ids=str)
def test_convergence_bytes_are_pinned(label, m):
    n_list, trials, digest = PINNED_CONVERGENCE[label, m]
    rule = parse_rule(label, m)
    assert trials % (CELLS // math.factorial(m))
    for threads in (1, 2):
        points = convergence_experiment(rule, n_list, trials, seed=11, limit_samples=40_000,
                                        threads=threads)
        text = convergence_to_csv(points, label, m, 11, trials)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("rule", [parse_rule("weights:1,5/6,1/3,1/4,0", 5),
                                  normalize([1.0, 0.7, 0.4, 0.15, 0.0])], ids=["sixths", "float"])
def test_batch_size_moves_no_convergence_bit(rule, monkeypatch):
    """Exact sums do not depend on where the batches are cut: the same bytes at three CELLS."""
    texts = set()
    for cells in (1 << 12, 12_345, CELLS):
        monkeypatch.setattr(asymptotics, "CELLS", cells)
        points = convergence_experiment(rule, (40, 333), 3_001, seed=11, limit_samples=20_000,
                                        threads=2)
        texts.add(convergence_to_csv(points, "rule", 5, 11, 3_001))
    assert len(texts) == 1


# The converge digests of three cases, printed by a child process; with OpenBLAS's kernel
# forced to another CPU type, a float product of the counts would move the non-dyadic ones.
CONVERGE_DIGESTS = """
import hashlib
from coalition_lp.asymptotics import convergence_experiment, convergence_to_csv
from coalition_lp.election import parse_rule
for label, m, n_list in (("weights:1,5/6,1/3,1/4,0", 5, (100,)), ("weights:1,5/6,1/3,1/4,0", 5, (333,)),
                         ("borda", 6, (100,))):
    points = convergence_experiment(parse_rule(label, m), n_list, 3_001, seed=3, limit_samples=20_000)
    print(hashlib.sha256(convergence_to_csv(points, label, m, 3, 3_001).encode()).hexdigest())
"""


def test_convergence_bytes_do_not_depend_on_the_blas_kernel():
    haswell, sandybridge = (_child_output(CONVERGE_DIGESTS, OPENBLAS_CORETYPE=core)
                            for core in ("Haswell", "Sandybridge"))
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(CONVERGE_DIGESTS, {})
    assert haswell == sandybridge == here.getvalue().split()
    assert len(set(haswell)) == 3


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_is_bounded_per_block_and_batch():
    """Traced peaks stay below what one chunk's or one trial set's arrays would take.

    Drawing a chunk's vertex max at once peaked at 28 MB, and all 2,000 m = 7
    profiles at once at 154 MB; 2^13-row blocks counted as they are drawn,
    two threads' block scratch and batches of 2^16 counts take ~2.9 and
    ~1.5 MB (~5.7 and ~4.5 MB with a 2 MB value array per chunk and batches
    of 3 << 17 counts, ~10.1 MB when each batch's counts were also copied to
    floats for a BLAS product).
    """
    model, rule = limit_model(borda(3)), borda(7)
    limit_model(rule), sample_scoreboards(50, rule, 1, np.random.default_rng(0))  # rule's tables
    two_chunks = _traced_peak(lambda: gw_curve(model, DEFAULT_GRID, 2 * CHUNK, seed=1, threads=2))
    assert two_chunks < 12 * 2**20, two_chunks
    m7 = _traced_peak(lambda: convergence_experiment(rule, (50,), 2_000,
                                                     limit_samples=20_000, threads=1))
    assert m7 < 16 * 2**20, m7


def test_a_curve_chunk_holds_no_chunk_sized_array():
    """One single-thread 2^18-draw m = 8 curve peaks at ~0.4 MB traced.

    Its blocks are counted as they are drawn, so no 2 MB value array is
    built (the whole curve peaked at 4.6 MB when one was), and the thread's
    1.2 MB block scratch, allocated by the first curve, is not allocated again.
    """
    model = limit_model(borda(8))
    gw_curve(model, DEFAULT_GRID, 10_000, seed=1, threads=1)
    peak = _traced_peak(lambda: gw_curve(model, DEFAULT_GRID, CHUNK, seed=1, threads=1))
    assert peak < 2**20, peak


def _refuse_draws(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("profiles or limit draws were taken before the inputs were checked")

    monkeypatch.setattr(asymptotics, "sample_vw_batch", no_draw)
    monkeypatch.setattr(asymptotics, "sample_scoreboards", no_draw)
    monkeypatch.setattr(asymptotics, "_in_order", no_draw)


def test_convergence_checks_m_before_the_limit_curve(monkeypatch):
    _refuse_draws(monkeypatch)
    with pytest.raises(MTooLarge):
        convergence_experiment(borda(9), [10], trials=10, limit_samples=4_000_000)


def test_convergence_checks_grid_and_samples_before_drawing(monkeypatch):
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="non-decreasing"):
        convergence_experiment(borda(3), [10, 20], trials=10, grid=[0.5, 1.0, 0.75])
    with pytest.raises(ValueError, match="10\\^4"):
        convergence_experiment(borda(3), [10, 20], trials=10, limit_samples=9_999)


def test_convergence_checks_every_size_before_any_task(monkeypatch):
    """A size numpy's multinomial cannot draw is InvalidInput before the pool starts."""
    _refuse_draws(monkeypatch)
    for n_list in ([0], [10, 2**63], [10**20]):
        with pytest.raises(InvalidInput, match=r"1 <= n < 2\*\*63"):
            convergence_experiment(borda(4), n_list, 100, limit_samples=10_000)


def test_samplers_refuse_sample_counts_below_one(monkeypatch):
    """A sample count below 1 is InvalidInput, not p = -9182.0 or a ZeroDivisionError.

    So is one above 2**32, before its chunk tasks fill memory.
    """
    _refuse_draws(monkeypatch)
    for samples in (0, -5, 2**32 + 1):
        with pytest.raises(InvalidInput, match=r"1 <= samples <= 2\*\*32"):
            plateau_probability(4, samples=samples)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_curves_refuse_non_finite_grid_points(bad, monkeypatch):
    """A NaN or infinite grid point is InvalidInput before any draw, in either position."""
    _refuse_draws(monkeypatch)
    model = limit_model(borda(4))
    for grid in ([bad, 1.0], [0.5, bad]):
        with pytest.raises(InvalidInput, match="finite"):
            gw_curve(model, grid, 10_000, 0)
        with pytest.raises(InvalidInput, match="finite"):
            convergence_experiment(borda(4), [10], 100, grid=grid, limit_samples=10_000)


def test_curves_refuse_an_empty_grid(monkeypatch):
    """An empty grid is InvalidInput before any draw, not numpy's zero-size maximum error."""
    _refuse_draws(monkeypatch)
    with pytest.raises(InvalidInput, match="at least one point"):
        gw_curve(limit_model(borda(3)), [], 10_000, 0)
    with pytest.raises(InvalidInput, match="at least one point"):
        convergence_experiment(borda(3), [100], 100, grid=[], limit_samples=10_000)


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
