import dataclasses
import gc
import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coalition_lp import election, exact, lp
from coalition_lp.election import (
    Profile, all_rankings, antiplurality, borda, integer_weights, normalize, parse_rule,
    plurality, sample_ic, scoreboard, sigma, top_two,
)
from coalition_lp.exact import (
    CoalitionPlan, InstanceTooLarge, ManipulationInstance, NotStrictWinner, mcs_exact,
    mcs_outcome, q1, q2, q3, q_program2, q_program2_from_instance,
    verify_integral_plan, verify_plan,
)
from coalition_lp.reduction import (
    MarginPair, cone_optimal_vertices, k_constant, mw_polytope, q_dual,
)
from oracles import brute_mcs, milp_mcs, type_rows

PLURALITY_TINY = Profile.from_counts(3, {(0, 1, 2): 4, (1, 0, 2): 3, (2, 1, 0): 1})
BORDA_TINY = Profile.from_counts(3, {(0, 1, 2): 4, (1, 0, 2): 2, (2, 1, 0): 1})


def test_plurality_tiny():
    out = mcs_outcome(PLURALITY_TINY, plurality(3))
    assert out.value == 1
    assert out.target == 1
    inst = ManipulationInstance.from_profile(PLURALITY_TINY, plurality(3), out.target)
    assert verify_integral_plan(inst, out.plan) == []
    # the one working move: the lone c-first voter defects to b
    assert out.plan.x == {(2, 1, 0): 1}


def test_borda_tiny():
    out = mcs_outcome(BORDA_TINY, borda(3))
    assert out.value == 1
    inst = ManipulationInstance.from_profile(BORDA_TINY, borda(3), out.target)
    assert verify_integral_plan(inst, out.plan) == []


def _random_tiny(rng, n_max=8):
    while True:
        counts = [rng.randint(0, 3) for _ in range(6)]
        n = sum(counts)
        if 2 <= n <= n_max:
            return Profile(3, tuple(counts))


@pytest.mark.parametrize("rule", [plurality(3), borda(3), antiplurality(3)])
def test_matches_brute_force(rule):
    rng = random.Random(hash(rule.weights) & 0xFFFF)
    checked = 0
    while checked < 12:
        prof = _random_tiny(rng)
        _, _, strict = top_two(scoreboard(prof, rule))
        if not strict:
            continue
        expect, _ = brute_mcs(prof, rule, kmax=prof.n)
        got = mcs_exact(prof, rule)
        assert got == expect, (prof.counts, rule.weights)
        checked += 1


def test_target_first_ballots_lose_nothing():
    # casting ballots that do not put the target first never helps
    rng = random.Random(5)
    for _ in range(4):
        prof = _random_tiny(rng, n_max=6)
        _, _, strict = top_two(scoreboard(prof, borda(3)))
        if not strict:
            continue
        guided, _ = brute_mcs(prof, borda(3))
        free, _ = brute_mcs(prof, borda(3), guided=False)
        assert guided == free


def test_outside_pool_recruits_lose_nothing():
    # recruiting voters who prefer the winner to the target never helps
    rng = random.Random(6)
    checked = 0
    while checked < 6:
        prof = _random_tiny(rng)
        rule = plurality(3)
        board = scoreboard(prof, rule)
        a, _, strict = top_two(board)
        if not strict:
            continue
        for beta in range(3):
            if beta == a:
                continue
            inst = ManipulationInstance.from_profile(prof, rule, beta)
            assert q1(inst) == q1(inst, unrestricted=True)
        checked += 1


def test_relaxation_chain():
    rule = plurality(3)
    slack = k_constant(rule)
    rng = random.Random(11)
    checked = 0
    while checked < 8:
        prof = sample_ic(400, 3, (401, rng.randint(0, 10**6)))
        board = scoreboard(prof, rule)
        a, _, strict = top_two(board)
        if not strict:
            continue
        for beta in range(3):
            if beta == a:
                continue
            inst = ManipulationInstance.from_profile(prof, rule, beta)
            lower = q3(inst)
            exact = q1(inst)
            upper = q2(inst, slack)
            assert lower <= exact + 1e-9
            assert lower <= upper + 1e-9
            if upper is not math.inf:
                assert exact <= upper + slack + 1e-9
        checked += 1


def test_antiplurality_bounded_lp_is_integral():
    """The bounded LP has a totally unimodular matrix here, so optima land on integers."""
    rule = antiplurality(3)
    rng = random.Random(23)
    finite = 0
    for trial in range(60):
        prof = sample_ic(rng.randint(10, 60), 3, (59, trial))
        board = scoreboard(prof, rule)
        _, _, strict = top_two(board)
        if not strict:
            continue
        value = q2(ManipulationInstance.from_profile(prof, rule), k_constant(rule))
        if value is math.inf:
            continue
        assert abs(value - round(value)) <= 1e-9, value
        finite += 1
    assert finite >= 10


def test_rounding_constants():
    assert k_constant(plurality(3)) == 12
    assert k_constant(antiplurality(4)) == 0
    assert k_constant(borda(4)) == 72


def test_runner_up_is_cheapest_relaxed_target():
    rng = random.Random(13)
    for rule in (borda(3), plurality(3)):
        checked = 0
        while checked < 10:
            prof = sample_ic(rng.randint(10, 80), 3, (7, rng.randint(0, 10**6)))
            board = scoreboard(prof, rule)
            a, b, strict = top_two(board)
            if not strict:
                continue
            values = {
                beta: q3(ManipulationInstance.from_profile(prof, rule, beta))
                for beta in range(3) if beta != a
            }
            assert values[b] == min(values.values())
            assert values[b] == q_program2(prof, rule)
            checked += 1


# The bound corpus of test_lp's pinned solves, with a float rule at every m.
BOUND_CORPUS = ((3, 12, 2), (4, 20, 2), (5, 30, 1), (6, 40, 1))
BOUND_RULES = ("plurality", "borda", "approval:2", "antiplurality")
FLOAT_WEIGHTS = (1.0, 0.8, 0.55, 0.3, 0.1, 0.0)


def _bound_rules(m):
    rules = [parse_rule(text, m) for text in BOUND_RULES]
    if m == 4:
        rules.append(parse_rule("weights:1,1,1/2,0", 4))
    return rules + [normalize(FLOAT_WEIGHTS[:m - 1] + (0.0,))]


def _same_value(got, want, rule):
    """Equal Fractions (or both infinite) for a rational rule; 1e-9 relative for a float one."""
    if rule.is_rational or math.inf in (got, want):
        assert got == want and type(got) is type(want)
    else:
        assert got == pytest.approx(want, rel=1e-9)


def test_reduced_lps_keep_the_full_pool_values():
    """q3 and q_program2 solve over undominated, merged columns and lose nothing.

    Against the LP over every pref_types recruit, and over every ba_types
    recruit, for every target of the bound corpus.
    """
    for m, n, profiles in BOUND_CORPUS:
        for rule in _bound_rules(m):
            for i in range(profiles):
                profile = sample_ic(n, m, (31, m, i))
                a, b, strict = top_two(scoreboard(profile, rule))
                if not strict:
                    continue
                for beta in range(m):
                    if beta == a:
                        continue
                    inst = ManipulationInstance.from_profile(profile, rule, beta)
                    full = exact._lp_value(exact._coalition_lp(inst, inst.pref_types))
                    _same_value(q3(inst), full, rule)
                    if beta != b:
                        continue
                    stratified = exact._lp_value(exact._coalition_lp(inst, inst.ba_types))
                    _same_value(q_program2_from_instance(inst), stratified, rule)
                    _same_value(q3(inst), q_program2_from_instance(inst), rule)


def _relabelled(profile, perm):
    counts = {tuple(perm[c] for c in ranking): k for ranking, k in profile.items()}
    return Profile.from_counts(profile.m, counts)


def _certificate_corpus():
    """Strict IC profiles at m = 3..6 under the rational bound rules, each also relabelled.

    Antiplurality at m = 3 and 4 leaves some targets unreachable (q3 = inf).
    """
    rng = random.Random(43)
    for m, n, profiles in ((3, 15, 6), (4, 50, 4), (5, 200, 2), (6, 300, 1)):
        for rule in _bound_rules(m)[:-1]:
            for i in range(profiles):
                profile = sample_ic(n, m, (43, m, i))
                perm = list(range(m))
                rng.shuffle(perm)
                for prof in (profile, _relabelled(profile, perm)):
                    if top_two(scoreboard(prof, rule))[2]:
                        yield prof, rule


def test_certified_values_match_fresh_full_pool_solves(monkeypatch):
    """q3 and q_program2 equal a fresh solve over the full pool, from whatever certificate.

    Equal Fractions or both inf, for every non-winner target; the stored
    certificates must have answered some calls (hits, Farkas rays among
    them) and been made by others (misses).  Replayed in reverse order from
    an emptied table that holds at most two per rule, every value is the same.
    """
    solves = []
    real_solve = lp.solve

    def counting(program):
        solves.append(program)
        return real_solve(program)

    monkeypatch.setattr(lp, "solve", counting)
    calls, values = [], []
    hits = misses = rays = 0
    for profile, rule in _certificate_corpus():
        a, b, _ = top_two(scoreboard(profile, rule))
        for beta in range(profile.m):
            if beta == a:
                continue
            inst = ManipulationInstance.from_profile(profile, rule, beta)
            pools = [(q3, inst.pref_types)]
            if beta == b:
                pools.append((q_program2_from_instance, inst.ba_types))
            for bound, pool in pools:
                del solves[:]
                got = bound(inst)
                if solves:
                    misses += 1
                else:
                    hits += 1
                    rays += got == math.inf
                want = exact._lp_value(exact._coalition_lp(inst, pool))
                assert got == want and type(got) is type(want), (rule, inst.scores, beta)
                calls.append((bound, inst))
                values.append(got)
    assert min(hits, misses, rays) > 0 and hits > 4 * misses, (hits, misses, rays)
    fresh = {}  # each rule anew, so that the replay starts from empty tables
    calls = [(bound, dataclasses.replace(inst, rule=fresh.setdefault(
        id(inst.rule), dataclasses.replace(inst.rule)))) for bound, inst in calls]
    monkeypatch.setattr(exact, "MAX_CERTIFICATES", 2)  # a full table leaves the rest to solves
    replay = [bound(inst) for bound, inst in reversed(calls)][::-1]
    assert [(v, type(v)) for v in replay] == [(v, type(v)) for v in values]
    assert {len(exact._canonical_lp(inst.rule)[2]) for _, inst in calls} == {1, 2}


def test_certificate_guard_refuses_corrupted_bases(monkeypatch):
    """A final basis or ray that does not check out exactly is not stored; q3 is the solve's value.

    Each corruption replaces the basis a solve returns, mostly after an
    honest solve of another target has stored one certificate.  The Borda program
    at m = 4 has 12 columns and 4 rows: labels 12-14 are the surpluses, 15
    would be the equality row's (it has none), 16-19 the artificials.  Its
    targets 0, 1 and 2 end on three different bases, each infeasible at the
    others' right-hand sides.  Some corruptions pass every check but one:
    [2, 3, 6, 9] is feasible with the optimal value but has a negative
    reduced cost, [0, 2, 9, 18] holds an artificial, Borda's [0, 3, 4] at
    m = 3 has a surplus with y < 0, and the ray of antiplurality's [0, 4, 8]
    has y . A_j > 0 on a column.
    """
    real_solve = lp.solve
    corrupt = None

    def corrupting(program):
        out = real_solve(program)
        return dataclasses.replace(out, basis=corrupt(list(out.basis)))

    monkeypatch.setattr(lp, "solve", corrupting)
    cases = (  # rule, profile, the honest target, the corrupted target, its value, corruptions
        (borda(4), sample_ic(50, 4, (9, 50, 0)), 0, 2, Fraction(4), (
            lambda b: b[:-1], lambda b: [b[0], *b[:-1]], lambda b: [*b[:-1], 15],
            lambda b: [16, *b[1:]], lambda b: [12, 13, 14, b[-1]],
            lambda b: [0, 2, 14, 9], lambda b: [0, 13, 14, 9],
            lambda b: [2, 3, 6, 9], lambda b: [0, 2, 9, 18])),
        (borda(3), sample_ic(12, 3, (9, 12, 0)), None, 1, Fraction(1), (lambda b: [0, 3, 4],)),
        (antiplurality(3), sample_ic(20, 3, (23, 1)), 1, 0, math.inf, (
            lambda b: [4, 5, 2], lambda b: [0, 5, 3], lambda b: [7, 9, 2], lambda b: [7, 7, 2],
            lambda b: [0, 4, 8])),
    )
    for rule, profile, honest, beta, value, corruptions in cases:
        for corruption in (*corruptions, None):
            fresh = dataclasses.replace(rule)  # a new rule object holds no certificates
            corrupt = list
            if honest is not None:  # its certificate does not answer beta
                q3(ManipulationInstance.from_profile(profile, fresh, honest))
            table = exact._canonical_lp(fresh)[2]
            stored = [*table]
            corrupt = corruption or list
            got = q3(ManipulationInstance.from_profile(profile, fresh, beta))
            assert got == value and type(got) is type(value)
            assert table[:len(stored)] == stored and len(table) == len(stored) + (not corruption)
            assert len(stored) == (honest is not None)


# q3 and q_program2 of scoreboards given as floats, or as ints and floats, under rational
# rules: the runner-up's q3 and q_program2, then q3 of targets 2.. (the winner is 0).
# Pairs, not a dict: the two Borda scoreboards compare and hash equal.
FLOAT_SCORE_PINS = (
    (("borda", (10.0, 8.5, 7.0, 4.5)), ("9/4", "9/4", "9/2", "33/4")),
    (("borda", (10, 8.5, 7, 4.5)), ("9/4", "9/4", "9/2", "33/4")),
    (("weights:1,1,1/2,0", (12.25, 11, 9.5, 3)), ("5/4", "5/4", "7/2", "243/16")),
    (("weights:1,1,1/2,0", (12, 11.75, 9, 3)), ("1/4", "1/4", "35/8", "239/16")),
    (("plurality", (30.0, 21, 20.5, 15, 13.5)), ("9", "9", "19/2", "15", "33/2")),
    (("antiplurality", (20, 18.5, 17, 9.5)), ("3/2", "3/2", "9/2", "inf")),
    (("approval:2", (40, 39.25, 30, 22.5, 18.25)), ("3/4", "3/4", "10", "35/2", "87/4")),
)


def test_float_scores_are_read_exactly():
    """A rational rule reads float scores exactly: each value is that of the scores as Fractions.

    The float solve over the (a, beta) columns that these replaced read
    8.249999999999998 for Borda's 33/4 and 15.187500000000004 for the
    243/16 of weights:1,1,1/2,0.
    """
    def values(rule, scores):
        runner_up = ManipulationInstance.from_scores(rule, scores)
        got = [q3(runner_up), q_program2_from_instance(runner_up)]
        return got + [q3(ManipulationInstance.from_scores(rule, scores, beta))
                      for beta in range(2, len(scores))]

    for (text, scores), want in FLOAT_SCORE_PINS:
        rule = parse_rule(text, len(scores))
        got = values(rule, scores)
        assert got == values(parse_rule(text, len(scores)), [*map(Fraction, scores)])
        assert all(type(v) is Fraction or v == math.inf for v in got)
        assert tuple(map(str, got)) == want, (text, scores)


LP_COLUMN_COUNTS = {  # (recruits, ballots) of _canonical_lp; the full pools hold m!/2 and (m-1)!
    3: {"plurality": (2, 1), "borda": (2, 2), "approval:2": (2, 2), "antiplurality": (2, 2)},
    4: {"plurality": (3, 1), "borda": (6, 6), "approval:2": (4, 3), "antiplurality": (3, 3)},
    5: {"plurality": (4, 1), "borda": (24, 24), "approval:2": (7, 4), "antiplurality": (4, 4)},
    6: {"plurality": (5, 1), "borda": (120, 120), "approval:2": (11, 5), "antiplurality": (5, 5)},
}


def _column_counts(rule):
    cost = exact._canonical_lp(rule)[0]
    return cost.count(1), cost.count(0)


def test_lp_column_counts_are_pinned():
    for m, counts in LP_COLUMN_COUNTS.items():
        for text, want in counts.items():
            assert _column_counts(parse_rule(text, m)) == want, (m, text)


def _all_pairs_lp_columns(rule):
    """{(a, beta): (recruits, ballots)} of every pair in one table: the reference for _canonical_lp."""
    rows = type_rows(rule)[1]
    recruits = {pair: {} for pair in itertools.permutations(range(rule.m), 2)}
    for i in range(rule.m - 1):  # stratum by stratum, as ba_types
        for t, row in rows.items():
            recruits[t[i + 1], t[i]].setdefault(tuple(s - row[t[i]] for s in row), t)
    ballots = [{} for _ in range(rule.m)]
    for t, row in rows.items():
        ballots[t[0]].setdefault(row, t)
    ballots = [tuple(kept.values()) for kept in ballots]
    return {(a, beta): (tuple(kept.values()), ballots[beta])
            for (a, beta), kept in recruits.items()}


def test_lp_columns_per_pair_match_the_all_pairs_table():
    """_canonical_lp's columns are the (0, 1) entry's, in order; every pair has as many.

    For the rational bound rules at m = 3..6: recruit t reads
    S*w[p(alpha)] - S*w[p(1)] over alpha != 1 and -1 on the size row, ballot
    t reads S - S*w[p(alpha)] and +1.
    """
    for m in range(3, 7):
        for rule in _bound_rules(m)[:-1]:
            table = _all_pairs_lp_columns(rule)
            assert len(table) == m * (m - 1)
            assert {tuple(map(len, columns)) for columns in table.values()} \
                == {_column_counts(rule)}, (m, rule)
            scale, rows = type_rows(rule)
            others = [alpha for alpha in range(m) if alpha != 1]
            recruits, ballots = table[0, 1]
            columns = [(*(rows[t][alpha] - rows[t][1] for alpha in others), -1) for t in recruits]
            columns += [(*(scale - rows[t][alpha] for alpha in others), 1) for t in ballots]
            assert exact._canonical_lp(rule)[:2] \
                == ((1,) * len(recruits) + (0,) * len(ballots), tuple(zip(*columns))), (m, rule)


def test_type_sets_hold_one_m5_pass():
    """A second mcs_outcome pass over the seed-9 m = 5 probe builds no type set anew.

    The probe is n in (50, 200, 1000), i < 4, under four rules: instances and
    per-rule tables ask for up to 80 (a, b, beta) keys at m = 5.
    """
    rules = [parse_rule(text, 5) for text in ("plurality", "borda", "approval:2", "antiplurality")]
    profiles = [sample_ic(n, 5, (9, n, i)) for n in (50, 200, 1000) for i in range(4)]

    def one_pass():
        for profile in profiles:
            for rule in rules:
                if top_two(scoreboard(profile, rule))[2]:
                    mcs_outcome(profile, rule)
        return exact._type_sets.cache_info().misses

    exact._type_sets.cache_clear()
    first = one_pass()
    assert first > 0 and one_pass() == first


def test_bracket_on_the_m4_benchmark_corpus():
    """q_dual <= mcs <= q_dual + k_constant on the seed-9 m = 4 corpus of bench/workloads.py."""
    strict_jobs = unreachable = 0
    for n in (50, 200):
        for i in range(8):
            profile = sample_ic(n, 4, (9, n, i))
            for text in ("plurality", "borda", "approval:2", "antiplurality", "weights:1,1,1/2,0"):
                rule = parse_rule(text, 4)
                board = scoreboard(profile, rule)
                if not top_two(board)[2]:
                    continue
                strict_jobs += 1
                dual = q_dual(MarginPair.from_scoreboard(board), mw_polytope(rule))
                mcs = mcs_exact(profile, rule)
                if math.inf in (dual, mcs):
                    assert dual == mcs, (n, i, text)
                    unreachable += 1
                    continue
                assert dual <= mcs <= dual + k_constant(rule), (n, i, text, mcs, dual)
    assert (strict_jobs, unreachable) == (69, 2)


def test_antiplurality_reachability():
    rule = antiplurality(3)
    rng = random.Random(17)
    seen_inf = seen_fin = 0
    while seen_inf < 3 or seen_fin < 3:
        prof = sample_ic(rng.randint(5, 60), 3, (23, rng.randint(0, 10**6)))
        board = scoreboard(prof, rule)
        _, _, strict = top_two(board)
        if not strict:
            continue
        margins = MarginPair.from_scoreboard(board)
        value = q_program2(prof, rule)
        if margins.b_deficit > 0:
            assert value == math.inf
            seen_inf += 1
        else:
            assert value < math.inf
            seen_fin += 1


def test_search_agrees_with_per_target_minimum():
    rng = random.Random(29)
    checked = 0
    while checked < 8:
        prof = _random_tiny(rng)
        rule = borda(3)
        board = scoreboard(prof, rule)
        a, _, strict = top_two(board)
        if not strict:
            continue
        per_target = [
            q1(ManipulationInstance.from_profile(prof, rule, beta))
            for beta in range(3) if beta != a
        ]
        assert mcs_exact(prof, rule) == min(per_target)
        checked += 1


def test_mcs_outcome_solves_each_bound_once(monkeypatch):
    calls = {"q3": 0, "scoreboard": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    prof = sample_ic(50, 4, (9, 50, 0))
    rule = borda(4)
    expected = mcs_outcome(prof, rule)
    monkeypatch.setattr(exact, "q3", counted("q3", exact.q3))
    monkeypatch.setattr(exact, "scoreboard", counted("scoreboard", exact.scoreboard))
    assert mcs_outcome(prof, rule) == expected
    assert calls == {"q3": 3, "scoreboard": 1}


def test_strict_win_needs_no_fewer_voters():
    rng = random.Random(31)
    checked = 0
    while checked < 8:
        prof = _random_tiny(rng)
        rule = plurality(3)
        _, _, strict = top_two(scoreboard(prof, rule))
        if not strict:
            continue
        weak = mcs_exact(prof, rule)
        hard = mcs_exact(prof, rule, strict_win=True)
        assert hard >= weak
        checked += 1


def test_guards():
    with pytest.raises(NotStrictWinner):
        mcs_exact(Profile.from_counts(3, {(0, 1, 2): 1, (1, 0, 2): 1}), plurality(3))
    big = Profile.from_counts(6, {(0, 1, 2, 3, 4, 5): 2, (1, 0, 2, 3, 4, 5): 1})
    with pytest.raises(InstanceTooLarge):
        mcs_exact(big, borda(6))
    with pytest.raises(ValueError):
        q_program2_from_instance(
            ManipulationInstance.from_profile(PLURALITY_TINY, plurality(3), beta=2)
        )


def test_verifier_catches_tampering():
    out = mcs_outcome(PLURALITY_TINY, plurality(3))
    inst = ManipulationInstance.from_profile(PLURALITY_TINY, plurality(3), out.target)
    bad_x = dict(out.plan.x)
    bad_x[(2, 1, 0)] = 5  # more voters of this type than exist
    tampered = CoalitionPlan(bad_x, {(1, 2, 0): 5})
    issues = verify_integral_plan(inst, tampered)
    assert any("only" in msg for msg in issues)


def test_verify_plan_reports_non_finite_amounts():
    for rule in (normalize((1.0, 0.6, 0.0)), borda(3)):
        inst = ManipulationInstance.from_scores(rule, (10, 7, 6))
        t = inst.first_types[0]
        for bad in (math.nan, math.inf, -math.inf):
            plan = CoalitionPlan({t: bad}, {t: bad})
            issues = verify_plan(inst, plan, pool=inst.pref_types, ballots=inst.first_types)
            assert issues == [f"non-finite amount {bad} for {t}"] * 2, (rule, bad)
        plan = CoalitionPlan({t: 1}, {t: math.nan})
        assert verify_integral_plan(inst, plan) == [f"non-finite amount nan for {t}"]


def _candidate_rows_by_sigma(inst, plan, tol):
    """verify_plan's candidate rows written out with sigma() and the rule's own weights.

    Amounts, weights, scores and tol are read with Fraction, so float inputs are exact.
    """
    target, issues = inst.beta, []

    def score(t, c):
        return Fraction(sigma(t, c, inst.rule))

    for alpha in range(inst.m):
        if alpha == target:
            continue
        lhs = sum(Fraction(amt) * (1 - score(t, alpha)) for t, amt in plan.y.items())
        lhs -= sum(
            Fraction(amt) * (score(t, target) - score(t, alpha)) for t, amt in plan.x.items()
        )
        rhs = Fraction(inst.scores[alpha]) - Fraction(inst.scores[target])
        if lhs - rhs < -Fraction(tol):
            issues.append(f"candidate {alpha} stays ahead: {lhs} < {rhs}")
    return issues


VERIFY_RULES = {
    3: ("plurality", "borda", "antiplurality", "weights:1,3/4,0", "weights:1,1/3,0",
        "weights:1.0,0.35,0.0"),
    4: ("plurality", "borda", "approval:2", "weights:1,1,1/2,0", "weights:1.0,0.6,0.2,0.0"),
}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_verify_plan_scores_as_sigma_does(data):
    """Scoring an exact plan in ints keeps the verdicts and messages of sigma() scoring."""
    m = data.draw(st.sampled_from((3, 4)))
    rule = parse_rule(data.draw(st.sampled_from(VERIFY_RULES[m])), m)
    profile = sample_ic(data.draw(st.integers(3, 40)), m, (41, data.draw(st.integers(0, 999))))
    a, _, strict = top_two(scoreboard(profile, rule))
    assume(strict)
    inst = ManipulationInstance.from_profile(
        profile, rule, data.draw(st.sampled_from([c for c in range(m) if c != a])))
    floats = data.draw(st.booleans())
    amount = (st.floats(0, 30) if floats else
              st.one_of(st.integers(0, 30), st.fractions(0, 30, max_denominator=12)))
    types = all_rankings(m)
    plan = CoalitionPlan(
        data.draw(st.dictionaries(st.sampled_from(inst.pref_types), amount, max_size=6)),
        data.draw(st.dictionaries(st.sampled_from(types), amount, max_size=6)),
    )
    tol = 1e-7 if floats else 0
    issues = verify_plan(inst, plan, pool=inst.pref_types, ballots=types, tol=tol)
    rows = [msg for msg in issues if msg.startswith("candidate")]
    assert rows == _candidate_rows_by_sigma(inst, plan, tol)


PINNED_RULES = {
    3: ("plurality", "borda", "antiplurality", "weights:1,3/4,0", "weights:1,1/3,0"),
    4: ("plurality", "borda", "approval:2", "antiplurality", "weights:1,1,1/2,0"),
}
# Strict searches that spent the whole 10M-node budget (13-23 s each) before the
# recruit search cut subtrees by score bounds: (n, i, rule, target) with target
# None for mcs_outcome.  test_budget_limited_search_matches_milp checks them.
SLOW_STRICT = {(50, 1, "antiplurality", None), (50, 2, "antiplurality", None),
               (200, 1, "approval:2", None), (200, 3, "antiplurality", None),
               (20, 0, "antiplurality", 0), (20, 0, "antiplurality", 2),
               (20, 1, "antiplurality", 1)}
PINNED_SEARCH_VALUES = (660, "4cf119c833f0de049d60e9777cf238e0ff66bbd079b38d3c79ffaf24f050a308")
PINNED_SEARCH_WITNESSES = (292, "c5983cf17c44e9661c8446db9794d4eab65676c90604ca19b86d51f6cd6be41b")


def _pinned_searches():
    """(value record, witness record or None) of each pinned search, in a fixed order.

    Every mcs_outcome witness is checked by verify_integral_plan on the way.
    """
    for m in (3, 4):
        for n in (7, 20, 50, 200):
            for i in range(4):
                profile = sample_ic(n, m, (31, n, i))
                for text in PINNED_RULES[m]:
                    rule = parse_rule(text, m)
                    for strict in (False, True):
                        try:
                            out = mcs_outcome(profile, rule, strict_win=strict)
                        except NotStrictWinner:
                            yield repr(("tie", m, n, i, text)), None
                            continue
                        plan = (None, None)
                        if out.plan is not None:
                            inst = ManipulationInstance.from_profile(profile, rule, out.target)
                            assert verify_integral_plan(inst, out.plan) == []
                            assert out.plan.size == out.value
                            plan = sorted(out.plan.x.items()), sorted(out.plan.y.items())
                        yield repr((out.value, out.target)), repr(plan)
                    board = scoreboard(profile, rule)
                    a, b, strict = top_two(board)
                    if n > 20 or not strict:
                        continue
                    for beta in range(m):
                        if beta == a:
                            continue
                        inst = ManipulationInstance._build(rule, board.scores, a, b, beta, profile)
                        yield repr(q1(inst, unrestricted=True)), None
                        yield repr(q1(inst, strict_win=True, unrestricted=True)), None


def test_search_results_are_pinned():
    """Every mcs_outcome (value, target) and witness and unrestricted q1 of a corpus, hashed.

    Corpus: sample_ic(n, m, (31, n, i)) for m = 3, 4, n in {7, 20, 50, 200}
    and i < 4, five rules each; mcs_outcome weak and strict, and for n <= 20
    q1(unrestricted=True) weak and strict per target.  The values and targets
    were recorded while the search walked one type at a time, the SLOW_STRICT
    inputs included, and hold unchanged over score classes.  The witnesses
    are pinned apart: they are the first plan each size's search finds.
    """
    values, witnesses = hashlib.sha256(), hashlib.sha256()
    counts = [0, 0]
    for value, witness in _pinned_searches():
        values.update(value.encode() + b"\n")
        counts[0] += 1
        if witness is not None:
            witnesses.update(witness.encode() + b"\n")
            counts[1] += 1
    assert (counts[0], values.hexdigest()) == PINNED_SEARCH_VALUES
    assert (counts[1], witnesses.hexdigest()) == PINNED_SEARCH_WITNESSES


NODE_CORPUS = ((3, (9, 31), (15, 50), 20), (4, (9, 31), (50, 200), 20), (5, (9,), (200, 1000), 4))
# nodes spent by mcs_outcome over NODE_CORPUS, per (m, strict), and the sha256 of every job's line
PINNED_NODE_TOTALS = {(3, False): 4_631, (3, True): 5_578, (4, False): 24_916,
                      (4, True): 110_196, (5, False): 12_705, (5, True): 35_910}
PINNED_NODE_JOBS = (1520, "47dc6b7b7a39dc21124f65668501a5c056c893891c400082e287dbe741276647")


def test_search_nodes_are_pinned(monkeypatch):
    """Each mcs_outcome's value, target, witness and node count on a corpus, hashed.

    Corpus: sample_ic(n, m, (seed, n, i)) over NODE_CORPUS's (m, seeds, sizes,
    i < count), for plurality, Borda, approval:2, antiplurality and (m > 3)
    weights:1,..,1,1/2,0, weak and strict.  A node is one _Budget.spend: the
    pin holds the search's work, not only its answers.
    """
    spend, nodes = exact._Budget.spend, [0]

    def counted(budget):
        nodes[0] += 1
        spend(budget)

    monkeypatch.setattr(exact._Budget, "spend", counted)
    digest, jobs, totals = hashlib.sha256(), 0, dict.fromkeys(PINNED_NODE_TOTALS, 0)
    for m, seeds, sizes, count in NODE_CORPUS:
        texts = ["plurality", "borda", "approval:2", "antiplurality"]
        texts += [f"weights:{'1,' * (m - 2)}1/2,0"] * (m > 3)
        rules = {text: parse_rule(text, m) for text in texts}
        for seed, n, i in itertools.product(seeds, sizes, range(count)):
            profile = sample_ic(n, m, (seed, n, i))
            for text, strict in itertools.product(texts, (False, True)):
                nodes[0] = 0
                try:
                    out = mcs_outcome(profile, rules[text], strict_win=strict)
                    plan = out.plan and (sorted(out.plan.x.items()), sorted(out.plan.y.items()))
                    line = (out.value, out.target, plan, nodes[0])
                except NotStrictWinner:
                    line = "tie"
                digest.update(repr((m, seed, n, i, text, strict, line)).encode() + b"\n")
                totals[m, strict] += nodes[0]
                jobs += 1
    assert totals == PINNED_NODE_TOTALS
    assert (jobs, digest.hexdigest()) == PINNED_NODE_JOBS


def _milp_cases():
    """(profile, rule text, strict, target or None) for the oracle comparison below."""
    # seed-9 corpus jobs on which the unbounded search spent its 10M nodes
    for i, text in ((3, "approval:2"), (3, "borda"), (3, "weights:1,1,1/2,0"),
                    (7, "weights:1,1,1/2,0")):
        yield sample_ic(1000, 4, (9, 1000, i)), text, False, None
    for n, i, text, target in sorted(SLOW_STRICT, key=repr):
        yield sample_ic(n, 4, (31, n, i)), text, True, target
    rng = random.Random(37)
    for i in range(20):
        n = rng.choice((20, 50, 200, 1000))
        yield sample_ic(n, 4, (37, n, i)), rng.choice(PINNED_RULES[4]), rng.random() < 0.3, None


def test_budget_limited_search_matches_milp(monkeypatch):
    """Within 1% of its node budget the search reaches program (1)'s milp optimum.

    The cases include every input on which the search without per-node
    bounds spent all 10M nodes; targeted cases run the unrestricted q1.  The
    costliest, the strict antiplurality mcs of sample_ic(200, 4, (31, 200, 3)),
    takes about 89,000 nodes to rule out a coalition of 15.
    """
    monkeypatch.setattr(exact, "NODE_BUDGET", 100_000)
    values = []
    for profile, text, strict, target in _milp_cases():
        rule = parse_rule(text, 4)
        if not top_two(scoreboard(profile, rule))[2]:
            continue
        want = milp_mcs(profile, rule, strict, target=target, unrestricted=target is not None)
        if target is not None:
            inst = ManipulationInstance.from_profile(profile, rule, target)
            got = q1(inst, strict_win=strict, unrestricted=True)
        else:
            out = mcs_outcome(profile, rule, strict_win=strict)
            got = out.value
            if got != math.inf:
                inst = ManipulationInstance.from_profile(profile, rule, out.target)
                assert verify_integral_plan(inst, out.plan) == []
                assert out.plan.size == got
        assert got == want, (profile.n, text, strict, target)
        values.append(got)
    assert values[:4] == [24, 31, 23, 23]


def test_strict_antiplurality_search_is_small(monkeypatch):
    """Over score classes the costliest SLOW_STRICT input needs a few hundred nodes, not ~89,000."""
    monkeypatch.setattr(exact, "NODE_BUDGET", 1_000)
    profile, rule = sample_ic(200, 4, (31, 200, 3)), antiplurality(4)
    out = mcs_outcome(profile, rule, strict_win=True)
    assert (out.value, out.target) == (16, 2) and out.plan.size == 16
    assert verify_integral_plan(ManipulationInstance.from_profile(profile, rule, 2), out.plan) == []


def test_m5_search_matches_milp(monkeypatch):
    """A slice of the seed-9 m = 5 corpus, weak and strict, equals program (1)'s milp optimum.

    Its first job, antiplurality on sample_ic(1000, 5, (9, 1000, 0)), spent
    the whole 10M-node budget at its answer size, 31, before the search
    pooled interchangeable types; it now takes about 2,000 nodes.
    """
    monkeypatch.setattr(exact, "NODE_BUDGET", 20_000)
    values = []
    for n, i in ((1000, 0), (1000, 3), (200, 1), (50, 2)):
        profile = sample_ic(n, 5, (9, n, i))
        for text in ("antiplurality", "plurality", "borda", "approval:2"):
            rule = parse_rule(text, 5)
            if not top_two(scoreboard(profile, rule))[2]:
                continue
            for strict in (False, True):
                out = mcs_outcome(profile, rule, strict_win=strict)
                assert out.value == milp_mcs(profile, rule, strict), (n, i, text, strict)
                if out.plan is not None:
                    inst = ManipulationInstance.from_profile(profile, rule, out.target)
                    assert verify_integral_plan(inst, out.plan) == [] and out.plan.size == out.value
                values.append(out.value)
    assert values[:2] == [31, math.inf]


def test_budget_error_says_how_far_the_search_got(monkeypatch, tmp_path, capsys):
    from coalition_lp import cli

    monkeypatch.setattr(exact, "NODE_BUDGET", 5)
    profile = sample_ic(200, 4, (9, 200, 5))
    with pytest.raises(InstanceTooLarge, match=r"5-node budget at target \d, coalition size "
                                               r"\d+ of \d+\.\.\d+ \(\d+ nodes spent on this"):
        mcs_outcome(profile, borda(4))
    path = tmp_path / "profile.json"
    path.write_text(profile.to_json())
    assert cli.main(["exact", "--profile", str(path), "--rule", "borda"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: search exceeded the 5-node budget")


def test_budget_error_gives_the_seconds_spent(monkeypatch):
    clock = itertools.count(100.0, 12.34)  # the budget starts at 100.0, the error reads 112.34
    monkeypatch.setattr(exact, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(exact, "NODE_BUDGET", 5)
    with pytest.raises(InstanceTooLarge, match=r"nodes spent on this target, 12\.3 s in all\)$"):
        mcs_outcome(sample_ic(200, 4, (9, 200, 5)), borda(4))


def _tables_of(rule):
    """The names of the per_rule tables built on the rule object."""
    return {key.rpartition(".")[2] for key in vars(rule) if "." in key}


def test_rule_tables_keep_float_and_rational_rules_apart(monkeypatch):
    """(1, 1/2, 0) == (1, 0.5, 0) and both hash alike, yet each rule keeps its own arithmetic.

    Scoreboards and coalition programs are each rule's own, whichever comes
    first: a float rule's scoreboard sums its float weights and builds no
    table, a rational rule's builds its integer weights alone.  A float rule
    never reads the certificates a rational q3 stored, and stores none.  Its
    integer weights and polytope read its weights exactly: equal to the
    rational rule's, in objects of its own.
    """
    solved, answered = [], []
    real_solve, real_answer = lp.solve, exact._answer

    def recording(program):
        solved.append(program.is_rational)
        return real_solve(program)

    def reading(certificate, d, den):
        answered.append(certificate)
        return real_answer(certificate, d, den)

    monkeypatch.setattr(lp, "solve", recording)
    monkeypatch.setattr(exact, "_answer", reading)
    for rational_first in (True, False):
        rational, floating = parse_rule("weights:1,1/2,0"), normalize((1.0, 0.5, 0.0))
        assert rational == floating and hash(rational) == hash(floating)
        for rule in (rational, floating) if rational_first else (floating, rational):
            kind = Fraction if rule is rational else float
            board = scoreboard(BORDA_TINY, rule)
            assert {type(s) for s in board.scores} == {kind}
            assert _tables_of(rule) == ({"integer_weights"} if rule is rational else set())
            scale, ints = integer_weights(rule)
            assert (scale, ints) == (2, (2, 1, 0)) and {type(s) for s in ints} == {int}
            inst = ManipulationInstance.from_profile(BORDA_TINY, rule)
            program = exact._coalition_lp(inst, inst.pref_types)
            assert program.is_rational is (rule is rational)
            assert {type(c) for coeffs, rel, _ in program.rows if rel == ">=" for c in coeffs} \
                == {kind}
            del solved[:], answered[:]
            assert type(q3(inst)) is kind and solved == [rule is rational]
            if rule is rational:
                assert len(exact._canonical_lp(rule)[2]) == 1
                assert exact._integer_tables(inst)[0] == 2
            else:  # no certificate read and no program of its own
                assert answered == [] and "_canonical_lp" not in _tables_of(rule)
                with pytest.raises(ValueError, match="rational rule"):
                    exact._integer_tables(inst)
            poly = mw_polytope(rule)
            assert mw_polytope(rule) is poly
            assert {type(c) for point in (*poly.vertices, *poly.rows) for c in point} == {Fraction}
            assert {type(c) for point in cone_optimal_vertices(poly) for c in point} == {Fraction}
        assert mw_polytope(rational) is not mw_polytope(floating)
        assert repr(mw_polytope(rational)) == repr(mw_polytope(floating))
        assert integer_weights(rational) is not integer_weights(floating)
        assert integer_weights(rational) == integer_weights(floating)


def test_rule_tables_leave_the_rule_as_it_was():
    """Built tables change no repr, eq or hash; the same object reuses them, a copy starts empty.

    So do a profile's position counts, which every rational rule's scoreboard reads.
    """
    profile = sample_ic(50, 4, (9, 50, 1))  # a strict winner under every rule
    for rule in _bound_rules(4):
        before = repr(rule), hash(rule)
        scoreboard(profile, rule)
        inst = ManipulationInstance.from_profile(profile, rule)
        q3(inst)
        poly = mw_polytope(rule)
        built = {"integer_weights", "mw_polytope"}  # a float rule's scoreboard and q3 build none
        if rule.is_rational:
            built |= {"_canonical_lp"}
        assert _tables_of(rule) == built
        assert (repr(rule), hash(rule)) == before and rule == normalize(rule.weights)
        assert [f.name for f in dataclasses.fields(rule)] == ["weights"]
        assert dataclasses.asdict(rule) == {"weights": rule.weights}
        assert integer_weights(rule) is integer_weights(rule) and mw_polytope(rule) is poly
        copy = dataclasses.replace(rule)
        assert copy == rule and vars(copy) == {"weights": rule.weights}
        assert mw_polytope(copy) is not poly and repr(mw_polytope(copy)) == repr(poly)
        assert integer_weights(copy) is not integer_weights(rule)
        assert integer_weights(copy) == integer_weights(rule)
        assert q3(ManipulationInstance.from_profile(profile, copy)) == q3(inst)
    positions = profile.positions
    assert vars(profile) == {"m": 4, "counts": profile.counts, "positions": positions}
    assert profile.positions is positions and repr(profile) == repr(Profile(4, profile.counts))
    copy = dataclasses.replace(profile)
    assert copy == profile and hash(copy) == hash(profile) and "positions" not in vars(copy)
    assert copy.positions is not positions and copy.positions == positions


def test_dropped_rules_return_their_tables():
    """16 m = 8 rules, each scoring a profile and given its sampling table and polytope and then
    dropped, leave < 5 MB traced; scoring and the polytope keep no per-type table on a rule.

    Caches keyed by the weights, 16 entries each, kept ~84 MB of score rows.
    Every table is held the same way, so the one m!-sized table a rule keeps,
    the 1.3 MB integer table that sampled profiles are scored with, stands
    for them all.  Scores are read from the profile's position counts.
    """
    profile = sample_ic(1000, 8, (9, 1000, 0))
    scoreboard(profile, borda(8))  # the per-m type maps and place index stay; build them first
    tracemalloc.start()
    try:
        for i in range(16):
            rule = normalize([8 + i, *range(6, -1, -1)])
            before = tracemalloc.get_traced_memory()[0]
            scoreboard(profile, rule), mw_polytope(rule)
            assert tracemalloc.get_traced_memory()[0] - before < 2**16  # one m!-long tuple: 315 KB
            election.sample_scoreboards(50, rule, 1, np.random.default_rng(i))
            assert _tables_of(rule) == {"integer_weights", "_score_limbs", "mw_polytope"}
        del rule
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 5 * 2**20, retained
