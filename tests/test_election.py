import ast
import dataclasses
import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalition_lp import election
from coalition_lp.election import (
    ConstantVector, InvalidInput, MTooLarge, NotMonotone, Profile, ScoreVector, TooFewCandidates,
    all_rankings, antiplurality, borda, k_approval, normalize, parse_rule,
    plurality, ranking_index, sample_ic, sample_scoreboards,
    scoreboard, three_candidate, top_two,
)
from coalition_lp.exact import ManipulationInstance, _coalition_lp
from coalition_lp.reduction import k_constant
from oracles import type_rows


def test_normalize_is_affine_invariant():
    raw = normalize((7, 5, 3, 1))
    assert raw.weights == borda(4).weights
    shifted = normalize((Fraction(3), Fraction(2), Fraction(1)))
    assert shifted.weights == (Fraction(1), Fraction(1, 2), Fraction(0))


def test_normalize_rejects_bad_vectors():
    with pytest.raises(NotMonotone):
        normalize((1, 2, 0))
    with pytest.raises(ConstantVector):
        normalize((1, 1, 1))
    with pytest.raises(TooFewCandidates):
        normalize((1, 0))


def test_named_rules():
    assert plurality(3).weights == (1, 0, 0)
    assert antiplurality(4).weights == (1, 1, 1, 0)
    assert k_approval(5, 2).weights == (1, 1, 0, 0, 0)
    assert borda(3).weights == (1, Fraction(1, 2), 0)
    assert three_candidate(Fraction(1, 4)).weights == (1, Fraction(3, 4), 0)
    with pytest.raises(ValueError):
        k_approval(4, 4)
    with pytest.raises(ValueError):
        three_candidate(0)


def test_parse_rule_grammar():
    assert parse_rule("borda", 4) == borda(4)
    assert parse_rule("approval:2", 4) == k_approval(4, 2)
    assert parse_rule("weights:1,1,0.5,0").weights == (1, 1, 0.5, 0)
    assert parse_rule("weights:1,3/4,0").weights == (1, Fraction(3, 4), 0)
    with pytest.raises(ValueError):
        parse_rule("borda")  # needs m
    with pytest.raises(ValueError):
        parse_rule("weights:1,0,0", 4)
    with pytest.raises(ValueError):
        parse_rule("condorcet", 3)


@pytest.mark.parametrize("build,message", [
    (lambda: parse_rule("approval:x", 3), "approval count 'x' is not an integer"),
    (lambda: parse_rule("approval:1.5", 4), "approval count '1.5' is not an integer"),
    (lambda: three_candidate("x"), "p 'x' is not a number"),
    (lambda: three_candidate("1/0"), "p '1/0' is not a number"),
], ids=["approval-word", "approval-fraction", "p-word", "p-zero-denominator"])
def test_bad_rule_text_is_invalid_input(build, message):
    """int() and Fraction() failures on rule text surface as InvalidInput, not a bare ValueError."""
    with pytest.raises(InvalidInput) as info:
        build()
    assert str(info.value) == message


def test_rule_statistics():
    b3 = borda(3)
    assert b3.mean == Fraction(1, 2)
    assert b3.variance == Fraction(1, 6)
    assert plurality(4).variance == Fraction(3, 16)
    assert antiplurality(3).has_unbounded_direction
    assert not borda(5).has_unbounded_direction


def test_rankings_and_indexing():
    r = all_rankings(3)
    assert len(r) == 6 and r[0] == (0, 1, 2)
    for i, ranking in enumerate(r):
        assert ranking_index(ranking, 3) == i
    with pytest.raises(ValueError):
        ranking_index((0, 0, 1), 3)
    with pytest.raises(MTooLarge):
        all_rankings(9)


def test_antiplurality_scoreboard():
    prof = Profile.from_counts(3, {(0, 1, 2): 2, (1, 2, 0): 1})
    board = scoreboard(prof, antiplurality(3))
    assert board.scores == (2, 3, 1)
    a, b, strict = top_two(board)
    assert (a, b, strict) == (1, 0, True)


def test_top_two_tie():
    prof = Profile.from_counts(3, {(0, 1, 2): 1, (1, 0, 2): 1})
    _, _, strict = top_two(scoreboard(prof, borda(3)))
    assert not strict


def test_from_counts_keeps_counts_unconverted():
    """A count that is no int, or a bool, is InvalidInput, as Profile refuses it, not converted."""
    for bad in (1.5, True, 1.0, math.inf, math.nan, "1"):
        with pytest.raises(InvalidInput, match="non-negative integers"):
            Profile.from_counts(3, {(0, 1, 2): 1, (1, 0, 2): bad})
        with pytest.raises(InvalidInput, match="non-negative integers"):
            Profile(3, (bad, 0, 0, 0, 0, 1))
    assert Profile.from_counts(3, {(0, 1, 2): 2, (2, 1, 0): 1}).counts == (2, 0, 0, 0, 0, 1)


def test_profile_json_round_trip():
    prof = Profile.from_counts(3, {(0, 1, 2): 4, (2, 1, 0): 1})
    back = Profile.from_json(prof.to_json())
    assert back == prof
    dup = Profile.from_json(
        '{"m": 3, "votes": [{"ranking": [0,1,2], "count": 2}, {"ranking": [0,1,2], "count": 3}]}'
    )
    assert dict(dup.items()) == {(0, 1, 2): 5}
    with pytest.raises(ValueError):
        Profile.from_json('{"votes": []}')


@st.composite
def profiles(draw, m=3):
    fact = math.factorial(m)
    counts = draw(st.lists(st.integers(0, 6), min_size=fact, max_size=fact))
    n = sum(counts)
    if n == 0:
        counts[0] = 1
    return Profile(m, tuple(counts))


@given(profiles(), st.sampled_from([borda(3), plurality(3), antiplurality(3)]))
def test_score_conservation(prof, rule):
    board = scoreboard(prof, rule)
    assert sum(board.scores) == prof.n * sum(rule.weights)


@given(profiles(), profiles())
@settings(max_examples=40)
def test_scoreboard_linearity(p1, p2):
    rule = borda(3)
    merged = scoreboard(p1 + p2, rule)
    s1, s2 = scoreboard(p1, rule), scoreboard(p2, rule)
    assert merged.scores == tuple(x + y for x, y in zip(s1.scores, s2.scores))


def test_sample_ic_deterministic():
    assert sample_ic(100, 3, 42) == sample_ic(100, 3, 42)
    assert sample_ic(100, 3, 42) != sample_ic(100, 3, 43)
    assert sample_ic(100, 3, 42).n == 100


def test_sampling_refuses_sizes_numpy_cannot_draw():
    """n outside 1 <= n < 2**63 is InvalidInput before any draw, not an OverflowError or a
    ZeroDivisionError from inside numpy's multinomial or the limb split."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for n in (0, -1, 2**63, 10**20):
        with pytest.raises(InvalidInput, match=r"1 <= n < 2\*\*63"):
            sample_ic(n, 3, 0)
        with pytest.raises(InvalidInput, match=r"1 <= n < 2\*\*63"):
            sample_scoreboards(n, borda(4), 3, rng)
    assert rng.bit_generator.state == state
    assert sample_ic(2**63 - 1, 3, 0).n == 2**63 - 1


def test_sample_ic_uniform_types():
    prof = sample_ic(60_000, 3, 1)
    for _, c in prof.items():
        assert abs(c - 10_000) < 500


def test_score_fluctuation_variance():
    # per-ballot score variance drives the CLT scaling of candidate totals
    rule = borda(3)
    rng = np.random.default_rng(7)
    n = 400
    boards = sample_scoreboards(n, rule, 4000, rng)
    centered = (boards[:, 0] - n * float(rule.mean)) / math.sqrt(n)
    assert np.var(centered) == pytest.approx(float(rule.variance), rel=0.10)


def test_first_place_ties_thin_out():
    rule = borda(3)
    rates = []
    for n in (50, 500, 5000):
        ties = 0
        for i in range(300):
            board = scoreboard(sample_ic(n, 3, (n, i)), rule)
            _, _, strict = top_two(board)
            ties += not strict
        rates.append(ties / 300)
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[2] < 0.05


@st.composite
def rational_weights(draw, m):
    """m non-increasing rational weights, ints and Fractions mixed, not normalized."""
    weight = st.one_of(st.integers(0, 5), st.fractions(0, 5, max_denominator=24))
    return ScoreVector(tuple(sorted(draw(st.lists(weight, min_size=m, max_size=m)), reverse=True)))


@st.composite
def sparse_profiles(draw, m):
    """A dozen voter types or fewer, with counts up to 10**6."""
    votes = draw(st.dictionaries(st.permutations(range(m)).map(tuple), st.integers(1, 10**6),
                                 min_size=1, max_size=12))
    return Profile.from_counts(m, votes)


def _assert_fraction_sum(prof, rule):
    naive = [Fraction(0)] * prof.m
    tally = [[0] * prof.m for _ in range(prof.m)]
    for ranking, c in prof.items():
        for pos, cand in enumerate(ranking):
            naive[cand] += c * Fraction(rule.weights[pos])
            tally[cand][pos] += c
    assert prof.positions == tuple(map(tuple, tally))
    board = scoreboard(prof, rule)
    assert board.scores == tuple(naive)
    assert all(type(s) is Fraction for s in board.scores)


@given(st.integers(3, 6).flatmap(lambda m: st.tuples(profiles(m), rational_weights(m))))
@settings(max_examples=60, deadline=None)
def test_rational_scoreboard_is_the_fraction_sum(case):
    _assert_fraction_sum(*case)


@given(st.integers(7, 8).flatmap(lambda m: st.tuples(sparse_profiles(m), rational_weights(m))))
@settings(max_examples=6, deadline=None)
def test_sparse_rational_scoreboard_is_the_fraction_sum(case):
    _assert_fraction_sum(*case)


def test_rational_scoreboard_fields_never_carry():
    """Negative weights and counts past 2**64: position counts and scores stay exact ints."""
    rule = ScoreVector((3, Fraction(1, 2), 0, -2))
    for count in (1, 2**64 - 1, 2**64, 3**90):
        prof = Profile.from_counts(4, {(0, 1, 2, 3): count, (3, 2, 1, 0): count + 1, (1, 3, 0, 2): 7})
        _assert_fraction_sum(prof, rule)


def test_is_rational_is_cached_per_vector():
    exact, inexact = ScoreVector((1, Fraction(1, 2), 0)), ScoreVector((1, 0.5, 0))
    assert exact.is_rational and not inexact.is_rational
    assert vars(exact) == {"weights": exact.weights, "is_rational": True}
    # the cached value is no field: equality, hashing, repr and replace() see the weights alone
    assert [f.name for f in dataclasses.fields(ScoreVector)] == ["weights"]
    assert exact == inexact and hash(exact) == hash(inexact)
    assert repr(exact) == "ScoreVector(weights=(1, Fraction(1, 2), 0))"
    assert dataclasses.asdict(exact) == {"weights": (1, Fraction(1, 2), 0)}
    assert dataclasses.replace(exact) == exact
    assert not dataclasses.replace(exact, weights=inexact.weights).is_rational
    assert dataclasses.replace(inexact, weights=exact.weights).is_rational
    assert exact.is_rational and not inexact.is_rational
    with pytest.raises(dataclasses.FrozenInstanceError):
        exact.weights = inexact.weights


def _pinned_rules(m):
    """Plurality, Borda, 2-approval, anti-plurality, non-unit denominators, a float rule."""
    tail = ("3/4", "1/3", "1/5", "1/7", "1/9", "1/11")[: m - 2]
    return (
        plurality(m), borda(m), k_approval(m, 2), antiplurality(m),
        parse_rule("weights:" + ",".join(("1", *tail, "0")), m),
        normalize([math.sqrt(m - 1 - pos) for pos in range(m)]),
    )


PINNED_BOARDS_AND_ROWS = (756, "e0c2a92d37f8bb037894a2c1a58b2f72684bdd159159c7fb00846fe3239b967a")


def test_scoreboards_and_rows_are_pinned():
    """repr of every scoreboard and coalition program over an IC corpus, hashed.

    The digest was recorded while scoreboards were summed in Fractions and the
    program rows built from sigma(), so it pins the exact values and their
    types (Fraction, int or float) of both.  Programs: the q3 pool for every
    non-winner target, and for the runner-up the stratified pool and (m <= 5)
    the q3 pool with recruitment bounds shrunk by 1; at m = 6 that program has
    360 bound rows of 480 entries and hashing it takes seconds.
    """
    digest = hashlib.sha256()
    count = 0
    for m in (3, 4, 5, 6):
        for n in (7, 50, 1000):
            for i in range(2):
                profile = sample_ic(n, m, (47, m, n, i))
                for rule in _pinned_rules(m):
                    board = scoreboard(profile, rule)
                    digest.update(repr(board).encode())
                    a, b, _ = top_two(board)
                    for beta in range(m):
                        if beta == a:
                            continue
                        inst = ManipulationInstance._build(rule, board.scores, a, b, beta, profile)
                        programs = [_coalition_lp(inst, inst.pref_types)]
                        if beta == b:
                            programs.append(_coalition_lp(inst, inst.ba_types))
                        if beta == b and m <= 5:
                            programs.append(_coalition_lp(inst, inst.pref_types, upper_slack=1))
                        for program in programs:
                            digest.update(repr(program).encode())
                            count += 1
    assert (count, digest.hexdigest()) == PINNED_BOARDS_AND_ROWS


# weights over a common denominator above 2**53: float(w) is not float(ints) / float(scale) there
PINNED_MATRIX_RULE = "weights:1,1/999983,1/1000003,1/1000033,1/1000037,0"


FLOAT_RULE = normalize([1.0, 0.7, 0.4, 0.15, 0.0])  # floats read exactly: scale 2**55


def _sampled_rules(m):
    """A dyadic and a non-dyadic rule at every m; a float rule at m = 5, PINNED_MATRIX_RULE at 6."""
    dyadic = normalize([1, *(Fraction(1, 2**k) for k in range(1, m - 1)), 0])
    other = normalize([1, *[Fraction(6, 7), Fraction(3, 7), Fraction(2, 7), Fraction(1, 7),
                            Fraction(1, 9), Fraction(1, 11)][:m - 2], 0])
    return [dyadic, other] + [FLOAT_RULE] * (m == 5) + [parse_rule(PINNED_MATRIX_RULE, 6)] * (m == 6)


@pytest.mark.parametrize("m", range(3, 9))
def test_sampled_scores_are_exact_sums_rounded_once(m):
    """Every score is float(Fraction(exact, scale)): in one limb and in several, in int32 and int64."""
    assert election.integer_weights(FLOAT_RULE)[0] == 2**55
    assert election.integer_weights(parse_rule(PINNED_MATRIX_RULE, 6))[0] > 2**63
    fact = math.factorial(m)
    for rule in _sampled_rules(m):
        scale, rows = type_rows(rule)
        columns = list(zip(*rows.values()))
        for n in (7, 100, 1001, 3**20):  # 3**20 voters take the int64 sums
            got = sample_scoreboards(n, rule, 3, np.random.default_rng((m, n)))
            drawn = np.random.default_rng((m, n)).multinomial(n, np.full(fact, 1 / fact), size=3)
            want = [[float(Fraction(sum(map(int.__mul__, counts, col)), scale)) for col in columns]
                    for counts in drawn.tolist()]
            assert got.tolist() == want, (rule, n)


def test_module_caches_are_keyed_by_m_alone():
    """Every lru_cache or cache in the package takes m first: a rule's tables live on the rule."""
    cached = []
    for path in sorted(Path(election.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    cached.append((path.name, node.name, [arg.arg for arg in node.args.args][:1]))
    assert cached and all(first == ["m"] for _, _, first in cached), cached


def test_only_lp_raises_a_bare_value_error():
    """Every other module's validation errors are InvalidInput, a ValueError subclass.

    lp keeps ValueError: election imports lp.lcd_ints, so lp cannot import election.
    """
    raisers = set()
    for path in sorted(Path(election.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) == "ValueError":
                    raisers.add(path.stem)
    assert raisers == {"lp"}


# The functions that read is_rational, _is_exact, _close or TIE_TOL: every route a float rule,
# float score or float margin can take in its own arithmetic.  Each one is a route that
# bench/golden.json pins: the float rule, its scoreboard and ties, its LP solves and its witness.
# Every other reader (verify_plan, the margin readers) reads float inputs exactly.
FLOAT_ROUTES = {
    "election._close", "election.ScoreVector.is_rational", "election.normalize",
    "election.three_candidate", "election.Scoreboard.mean", "election.scoreboard",
    "election.top_two",
    "exact._unbounded_lp_value", "exact._integer_tables",
    "lp.solve",
    "reduction.witness_from_z",
}


def test_float_arithmetic_stays_on_its_routes():
    """The functions that tell float inputs from exact ones are exactly FLOAT_ROUTES."""
    names = {"is_rational", "_is_exact", "_close", "TIE_TOL"}
    found = set()
    for path in sorted(Path(election.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scoped = [(f"{top.name}.", top.body)] if isinstance(top, ast.ClassDef) else [("", [top])]
            for prefix, body in scoped:
                for node in body:
                    if not isinstance(node, ast.FunctionDef):
                        continue
                    for sub in ast.walk(node):
                        read = getattr(sub, "id", None) or getattr(sub, "attr", None)
                        if read in names:
                            found.add(f"{path.stem}.{prefix}{node.name}")
    assert found == FLOAT_ROUTES


def test_float_rules_read_their_weights_exactly():
    """A float rule's integer weights, mean, variance, sigma and k_constant are its twin's."""
    for raw in ((1.0, 0.8, 0.55, 0.3, 0.1, 0.0), (1.0, 0.7, 0.4, 0.15, 0.0), (1.0, 1.0, 0.5, 0.0),
                (1.0, 0.3, 0.0), (1.0, 1.0, 0.0), [math.sqrt(4 - pos) for pos in range(5)]):
        rule = normalize(raw)
        twin = normalize(map(Fraction, rule.weights))
        assert not rule.is_rational and twin.is_rational and twin == rule
        assert election.integer_weights(rule) == election.integer_weights(twin)
        for stat in (lambda r: r.mean, lambda r: r.variance, lambda r: r.sigma, k_constant):
            assert (stat(rule), type(stat(rule))) == (stat(twin), type(stat(twin))), raw
