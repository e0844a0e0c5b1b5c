import math
import random

import pytest

from coalition_lp import exact
from coalition_lp.election import (
    Profile, antiplurality, borda, plurality, sample_ic, scoreboard, top_two,
)
from coalition_lp.exact import (
    InstanceTooLarge, ManipulationInstance, NotStrictWinner, mcs_exact,
    mcs_outcome, q1, q2, q3, q_program2, q_program2_from_instance,
    verify_integral_plan,
)
from coalition_lp.reduction import MarginPair, k_constant
from oracles import brute_mcs

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
    big = Profile.from_counts(5, {(0, 1, 2, 3, 4): 2, (1, 0, 2, 3, 4): 1})
    with pytest.raises(InstanceTooLarge):
        mcs_exact(big, borda(5))
    with pytest.raises(ValueError):
        q_program2_from_instance(
            ManipulationInstance.from_profile(PLURALITY_TINY, plurality(3), beta=2)
        )


def test_verifier_catches_tampering():
    out = mcs_outcome(PLURALITY_TINY, plurality(3))
    inst = ManipulationInstance.from_profile(PLURALITY_TINY, plurality(3), out.target)
    bad_x = dict(out.plan.x)
    bad_x[(2, 1, 0)] = 5  # more voters of this type than exist
    from coalition_lp.exact import CoalitionPlan

    tampered = CoalitionPlan(bad_x, {(1, 2, 0): 5})
    issues = verify_integral_plan(inst, tampered)
    assert any("only" in msg for msg in issues)
