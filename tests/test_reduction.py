import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalition_lp.election import (
    InvalidInput, Profile, ScoreVector, antiplurality, borda, k_approval, normalize, parse_rule, plurality,
    sample_ic, scoreboard, three_candidate, top_two,
)
from coalition_lp.exact import (
    CoalitionPlan, ManipulationInstance, q3, q_program2, verify_stratified_plan,
)
from coalition_lp.reduction import (
    ConstructionFailed, MarginPair, ParamOutOfRange, UnknownFamily,
    ZInfeasible, closed_form_q, cone_optimal_vertices, k_constant,
    mw_polytope, optimal_vertex_set, q_dual, q_stratified, sigma_scaled, witness_from_z,
)
from oracles import polytope_vertices
from test_election import _pinned_rules


def test_borda4_polytope():
    poly = mw_polytope(borda(4))
    assert set(poly.vertices) == {(0, 0), (0, Fraction(3, 2)), (Fraction(3, 2), Fraction(3, 2))}
    assert poly.rays == ()
    assert cone_optimal_vertices(poly) == ((Fraction(3, 2), Fraction(3, 2)),)


def test_hard_family_polytope():
    poly = mw_polytope(three_candidate(Fraction(1, 4)))
    assert set(poly.vertices) == {
        (0, 0), (Fraction(4, 3), Fraction(4, 3)), (Fraction(4, 3), 4), (0, 4),
    }
    assert len(cone_optimal_vertices(poly)) == 2


def test_antiplurality_polytope_has_ray():
    poly = mw_polytope(antiplurality(4))
    assert poly.rays == ((0, 1),)
    assert set(poly.vertices) == {(0, 0), (1, 1)}


def test_near_antiplurality_float_rule_has_no_ray():
    """w[-2] just below 1 is read exactly: the region is bounded, so the dual stays finite."""
    rule = normalize((1.0, 1 - 1e-10, 0.0))
    assert not rule.has_unbounded_direction and normalize((1.0, 1.0, 0.0)).has_unbounded_direction
    poly = mw_polytope(rule)
    assert poly.rays == ()
    value = q_dual(MarginPair(3.0, 0.5), poly)
    assert math.isfinite(value) and value == pytest.approx(5.0e9, rel=1e-6)
    assert math.isfinite(k_constant(rule))


def test_figure_dot_coordinates():
    cases = [
        (borda(4), [(0.559017, 0.559017)]),
        (plurality(4), [(0.433013, 0.433013)]),
        (k_approval(4, 2), [(0.5, 0.5)]),
        (normalize((1, 1, Fraction(1, 2), 0)), [(0.414578, 0.414578), (0.414578, 0.829156)]),
        (antiplurality(4), [(0.433013, 0.433013)]),
    ]
    for rule, expected in cases:
        poly = mw_polytope(rule)
        dots = cone_optimal_vertices(poly)
        got = sorted((float(x) * rule.sigma, float(y) * rule.sigma) for x, y in dots)
        assert len(got) == len(expected)
        for (gx, gy), (ex, ey) in zip(got, sorted(expected)):
            assert gx == pytest.approx(ex, abs=1e-3)
            assert gy == pytest.approx(ey, abs=1e-3)


def test_q_dual_examples():
    assert q_dual(MarginPair(3, 1), mw_polytope(borda(4))) == 6
    assert q_dual(MarginPair(2, 1), mw_polytope(k_approval(4, 2))) == 3
    anti = mw_polytope(antiplurality(3))
    assert q_dual(MarginPair(2, Fraction(1, 2)), anti) == math.inf
    assert q_dual(MarginPair(2, Fraction(-1, 2)), anti) == Fraction(3, 2)


def test_optimal_vertex_set():
    poly = mw_polytope(borda(4))
    assert optimal_vertex_set(MarginPair(3, 1), poly) == ((Fraction(3, 2), Fraction(3, 2)),)
    # pure catch-up margins tie the diagonal with the origin's edge partner
    verts = optimal_vertex_set(MarginPair(0, 0), poly)
    assert len(verts) == 3


def test_margin_readers_read_floats_exactly():
    """Float margins and p are read exactly, with no tie tolerance."""
    # (3/2, 3/2) beats (0, 3/2) by 1.5e-10: a tie tolerance of 1e-9 would keep both
    poly = mw_polytope(borda(4))
    assert optimal_vertex_set(MarginPair(1e-10, 1.0), poly) == ((Fraction(3, 2), Fraction(3, 2)),)
    assert MarginPair(1.0, -1.0).scoreboard_valid(4)
    assert not MarginPair(1.0, -1.0 - 1e-12).scoreboard_valid(4)
    q = closed_form_q("easy", MarginPair(3, 1), p=0.75)
    assert (q, type(q)) == (Fraction(16, 3), Fraction)


RULES_WITH_FAMILIES = [
    ("borda", borda(3), {"m": 3}),
    ("borda", borda(5), {"m": 5}),
    ("k-approval", k_approval(4, 2), {"m": 4, "k": 2}),
    ("k-approval", plurality(5), {"m": 5, "k": 1}),
    ("antiplurality", antiplurality(4), {"m": 4}),
    ("easy", three_candidate(Fraction(4, 5)), {"p": Fraction(4, 5)}),
    ("hard", three_candidate(Fraction(1, 3)), {"p": Fraction(1, 3)}),
]


def _cone_margins(rng, m):
    a = Fraction(rng.randint(0, 60), rng.randint(1, 6))
    lo, hi = -a, a / (m - 1)
    b = lo + Fraction(rng.randint(0, 120), 120) * (hi - lo)
    return MarginPair(a, b)


@pytest.mark.parametrize("family,rule,kwargs", RULES_WITH_FAMILIES)
def test_closed_form_matches_dual(family, rule, kwargs):
    rng = random.Random(family + str(rule.weights))
    poly = mw_polytope(rule)
    for _ in range(60):
        margins = _cone_margins(rng, rule.m)
        assert margins.scoreboard_valid(rule.m)
        assert closed_form_q(family, margins, **kwargs) == q_dual(margins, poly)


def test_closed_form_errors():
    with pytest.raises(ParamOutOfRange):
        closed_form_q("k-approval", MarginPair(1, 0), m=4, k=3)
    with pytest.raises(ParamOutOfRange):
        closed_form_q("easy", MarginPair(1, 0), p=Fraction(1, 4))
    with pytest.raises(UnknownFamily):
        closed_form_q("condorcet", MarginPair(1, 0), m=3)


@given(
    a=st.fractions(min_value=0, max_value=30),
    t=st.fractions(min_value=0, max_value=1),
    rule_idx=st.integers(0, 3),
)
@settings(max_examples=80, deadline=None)
def test_stratified_equals_dual(a, t, rule_idx):
    rule = [borda(3), borda(4), plurality(4), three_candidate(Fraction(2, 7))][rule_idx]
    lo, hi = -a, a / (rule.m - 1)
    margins = MarginPair(a, lo + t * (hi - lo))
    value, z = q_stratified(margins, rule)
    assert value == q_dual(margins, mw_polytope(rule))
    if z is not None:
        assert all(zi >= 0 for zi in z)


@given(
    a=st.fractions(min_value=0, max_value=20),
    t=st.fractions(min_value=0, max_value=1),
    da=st.fractions(min_value=0, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_dual_value_monotone_in_margins(a, t, da):
    poly = mw_polytope(borda(4))
    lo, hi = -a, a / 3
    b = lo + t * (hi - lo)
    base = q_dual(MarginPair(a, b), poly)
    assert q_dual(MarginPair(a + da, b), poly) >= base
    assert q_dual(MarginPair(a, b + da), poly) >= base


def test_triality_on_profiles():
    # the exact LP over preference types, the stratified program, and the
    # two-variable dual all agree on real electorates
    rng = random.Random(101)
    for rule in (borda(3), plurality(3), borda(4), k_approval(4, 2)):
        poly = mw_polytope(rule)
        checked = 0
        while checked < 6:
            prof = sample_ic(rng.randint(8, 120), rule.m, (3, rng.randint(0, 10**6)))
            board = scoreboard(prof, rule)
            _, _, strict = top_two(board)
            if not strict:
                continue
            margins = MarginPair.from_scoreboard(board)
            inst = ManipulationInstance.from_profile(prof, rule)
            low = q3(inst)
            assert q_program2(prof, rule) == low
            assert q_dual(margins, poly) == low
            assert q_stratified(margins, rule)[0] == low
            checked += 1


PLANAR_DUAL_TARGETS = {4: (165, 55), 5: (224, 56), 6: (270, 54)}  # (targets, runner-ups) per m


@pytest.mark.parametrize("m", [4, 5, 6])
def test_planar_dual_bounds_q3_at_every_target(m):
    """q_dual <= q3 at every target beta, with equality at the runner-up.

    beta's margins are (|a| - mean, mean - |beta|).  Their dual relaxes q3: it
    keeps a's row and the sum of all rows, and the total score, so the mean,
    does not move.  At the runner-up q3 is program (2), whose value the dual
    is.  Seed-9 IC profiles, n in {50, 200, 1000} and i < 4, under Borda,
    plurality, antiplurality, 2-approval and a rule with non-unit denominators.
    """
    rules = [parse_rule(text, m) for text in ("borda", "plurality", "antiplurality", "approval:2")]
    rules.append(_pinned_rules(m)[4])
    targets = runner_ups = 0
    for n in (50, 200, 1000):
        for i in range(4):
            profile = sample_ic(n, m, (9, n, i))
            for rule in rules:
                board = scoreboard(profile, rule)
                a, b, strict = top_two(board)
                if not strict:
                    continue
                poly = mw_polytope(rule)
                for beta in range(m):
                    if beta == a:
                        continue
                    margins = MarginPair(board.scores[a] - board.mean, board.mean - board.scores[beta])
                    dual = q_dual(margins, poly)
                    bound = q3(ManipulationInstance.from_profile(profile, rule, beta))
                    assert dual <= bound, (rule, n, i, beta)
                    if beta == b:
                        assert dual == bound, (rule, n, i)
                        runner_ups += 1
                    targets += 1
    assert (targets, runner_ups) == PLANAR_DUAL_TARGETS[m]


def test_margin_pair_cone():
    assert MarginPair(6, 2).scoreboard_valid(4)
    assert not MarginPair(6, Fraction(21, 10)).scoreboard_valid(4)
    assert not MarginPair(6, -7).scoreboard_valid(4)
    assert not MarginPair(-1, 0).scoreboard_valid(4)
    board = scoreboard(PROFILE_A, borda(3))
    margins = MarginPair.from_scoreboard(board)
    assert margins.gap == board.scores[0] - board.scores[1]


PROFILE_A = Profile.from_counts(3, {(0, 1, 2): 4, (1, 0, 2): 2, (2, 1, 0): 1})


def test_witness_on_profiles():
    rng = random.Random(55)
    for rule in (borda(3), plurality(3), borda(4), three_candidate(Fraction(1, 3))):
        checked = 0
        while checked < 5:
            prof = sample_ic(rng.randint(8, 100), rule.m, (9, rng.randint(0, 10**6)))
            board = scoreboard(prof, rule)
            _, _, strict = top_two(board)
            if not strict:
                continue
            margins = MarginPair.from_scoreboard(board)
            value, z = q_stratified(margins, rule)
            inst = ManipulationInstance.from_profile(prof, rule)
            plan = witness_from_z(inst, z)
            assert verify_stratified_plan(inst, plan, z) == []
            assert plan.size == value
            checked += 1


def test_witness_on_synthetic_scoreboards():
    rng = random.Random(77)
    for rule in (borda(4), k_approval(4, 2), normalize((1, 1, Fraction(1, 2), 0))):
        for _ in range(10):
            margins = _cone_margins(rng, 4)
            if margins.gap == 0:
                continue
            nbar = Fraction(1000)
            third = nbar + (margins.b_deficit - margins.a_margin) / 2
            scores = (nbar + margins.a_margin, nbar - margins.b_deficit, third, third)
            inst = ManipulationInstance.from_scores(rule, scores)
            value, z = q_stratified(margins, rule)
            plan = witness_from_z(inst, z)
            assert verify_stratified_plan(inst, plan, z) == []
            assert plan.size == value


PINNED_WITNESSES = {
    "rational": (156, "83b40091a21e2749b099084c7aeb59ea8ac443da69eaabce2985d5adc12db545"),
    "float": (36, "4e2a7a73877cfcc7a8800d482178150bcd55920c47a2bce53f9408927271fa63"),
}


def _digests(items):
    """{kind: (count, sha256)} of (rule, text) items, rational and float rules apart."""
    digests, counts = {}, {}
    for rule, text in items:
        kind = "rational" if rule.is_rational else "float"
        digests.setdefault(kind, hashlib.sha256()).update(text.encode())
        counts[kind] = counts.get(kind, 0) + 1
    return {kind: (counts[kind], digest.hexdigest()) for kind, digest in digests.items()}


def test_witness_plans_are_pinned():
    """repr of every witness_from_z plan over an IC corpus, hashed per kind of rule.

    The rational digest was taken from the last code with a float
    construction of its own, whose plans matched a digest recorded while each
    per-type amount was its own product: exact plans must stay the same
    Fractions, bit for bit.  The float digest pins the float plans of the
    exact construction, each amount rounded once.  z is
    q_stratified's optimum and, to leave the vertex, that optimum times 3/2
    and that optimum plus 1 in every stratum.  The last stays feasible, since
    no row coefficient is negative, and fills every stratum.
    """
    def plans():
        for m in (3, 4, 5, 6):
            for n, i in ((50, 0), (1000, 0), (1000, 1)):
                profile = sample_ic(n, m, (53, m, n, i))
                for rule in _pinned_rules(m):
                    board = scoreboard(profile, rule)
                    if not top_two(board)[2]:
                        continue
                    inst = ManipulationInstance.from_profile(profile, rule)
                    _, z = q_stratified(MarginPair.from_scoreboard(board), rule)
                    zs_list = () if z is None else (z, [zi * 3 / 2 for zi in z], [zi + 1 for zi in z])
                    for zs in zs_list:
                        plan = witness_from_z(inst, zs)
                        yield rule, repr((sorted(plan.x.items()), sorted(plan.y.items())))

    assert _digests(plans()) == PINNED_WITNESSES


def _random_rational_rule(rng, m):
    while True:
        raw = sorted((Fraction(rng.randint(0, 24), rng.randint(1, 12)) for _ in range(m)), reverse=True)
        if raw[0] != raw[-1]:
            return normalize(raw)


def _polytope_rules():
    """Named families (every k-approval), seeded random rational rules, odd and float rules."""
    rules = []
    for m in range(3, 9):
        rules += [borda(m), *(k_approval(m, k) for k in range(1, m))]
        rules += _pinned_rules(m) if m <= 6 else ()
        rng = random.Random(f"polytope-{m}")
        rules += [_random_rational_rule(rng, m) for _ in range(20)]
        rules += [normalize(sorted((rng.random() for _ in range(m)), reverse=True)) for _ in range(3)]
    rules += [three_candidate(Fraction(p)) for p in ("1/4", "1/3", "1/2", "2/3", "4/5", "1")]
    rules += [parse_rule(text) for text in (
        "weights:1,1e-300,0", "weights:1,1,1/2,0", "weights:1,0.3333333333,0.3333333333,0",
        "weights:1.0,0.6,0.0", "weights:1,0.6,0.2,0", "weights:1,1,0.5,0",
    )]
    return rules


PINNED_POLYTOPES = {
    "rational": (185, "a5a11daa371a8f1ee39182080cab5650f5b82deb7ce6459ec477b248e4250bea"),
    "float": (22, "91bac9e6f3274b80363fada7468c3417d5982d0e22636e2bdf281f0f29700ee6"),
}


def test_polytope_geometry_is_pinned():
    """repr of every rule's vertices, rays, rows and cone-optimal vertices, hashed per kind of rule.

    The rational digest was taken from the last code with a float geometry
    of its own, whose geometry matched a digest recorded while mw_polytope
    intersected its rows in Fractions and cone_optimal_vertices converted
    each vertex difference to a Fraction: the exact geometry must stay the
    same Fractions, bit for bit.  The float digest pins the exact geometry of
    the float rules' weights.
    """
    def geometry():
        for rule in _polytope_rules():
            poly = mw_polytope(rule)
            yield rule, repr((poly.vertices, poly.rays, poly.rows, cone_optimal_vertices(poly)))

    assert _digests(geometry()) == PINNED_POLYTOPES


def test_cached_polytopes_match_fresh_builds():
    """Per rule object, one polytope and one cone-optimal tuple; an equal new rule builds its own."""
    for m in range(3, 9):
        for rule in _pinned_rules(m):
            poly = mw_polytope(rule)
            assert mw_polytope(rule) is poly
            assert cone_optimal_vertices(mw_polytope(rule)) is cone_optimal_vertices(poly)
            fresh = mw_polytope(ScoreVector(tuple(rule.weights)))  # an equal rule, another object
            assert fresh is not poly and fresh == poly
            assert repr(poly) == repr(fresh)
            assert repr(cone_optimal_vertices(poly)) == repr(fresh.cone_optimal)


@pytest.mark.parametrize("first", ["float", "fraction"])
def test_polytope_cache_keeps_float_and_rational_rules_apart(first):
    """(1, 0.5, 0) == (1, 1/2, 0) and both hash alike: equal exact polytopes, each its own object.

    Whichever rule is built first, the other builds its own polytope: the
    tables live on the rule object, not under its weights.  The float rule's
    weights are read exactly, so both polytopes are the same Fractions.
    """
    rules = {"float": ScoreVector((1, 0.5, 0)), "fraction": ScoreVector((1, Fraction(1, 2), 0))}
    assert rules["float"] == rules["fraction"] and hash(rules["float"]) == hash(rules["fraction"])
    polys = {key: mw_polytope(rules[key]) for key in sorted(rules, key=lambda key: key != first)}
    assert polys["float"] is not polys["fraction"]
    assert repr(polys["float"]) == repr(polys["fraction"])
    for key, poly in polys.items():
        assert mw_polytope(rules[key]) is poly
        points = (*poly.vertices, *poly.rows, *cone_optimal_vertices(poly))
        assert {type(c) for point in points for c in point} == {Fraction}


def test_float_rules_have_the_exact_polytope_of_their_weights():
    """A seeded random float rule's polytope is that of its weights read as Fractions."""
    for m in range(3, 9):
        rng = random.Random(f"float-polytope-{m}")
        for _ in range(20):
            rule = normalize(sorted((rng.random() for _ in range(m)), reverse=True))
            assert mw_polytope(rule) == mw_polytope(normalize([Fraction(w) for w in rule.weights]))


@given(m=st.integers(3, 8), data=st.data())
@settings(max_examples=120, deadline=None)
def test_polytope_matches_oracle(m, data):
    raw = data.draw(st.lists(st.fractions(min_value=0, max_value=10, max_denominator=30),
                             min_size=m, max_size=m))
    raw.sort(reverse=True)
    if raw[0] == raw[-1]:
        raw[0] += 1
    rule = normalize(raw)
    assert mw_polytope(rule).vertices == polytope_vertices(rule)


def _witness_branch_case(label):
    """(instance, z) reaching one branch of the exact construction; z None is q_stratified's."""
    tie = {"borda4": (borda(4), (6, 6, 3, 1)), "plurality5": (plurality(5), (5, 5, 2, 2, 1))}
    cases = {
        "m3-borda": (borda(3), (10, 7, 4), None),
        "m3-hard": (three_candidate(Fraction(1, 3)), (Fraction(31, 2), 12, 9), None),
        "m3-int-z": (borda(3), (10, 7, 4), (4, 2)),
        "a0-plurality4": (plurality(4), (10, 8, 7, 5), None),
        "a0-plurality5-int-z": (plurality(5), (9, 7, 6, 2, 1), (2, 1, 3, 0)),
        "int-z-borda4": (borda(4), (30, 25, 20, 17), (6, 3, 1)),
        "int-z-two-dot": (normalize((1, 1, Fraction(1, 2), 0)), (40, 33, 30, 25), (0, 10, 4)),
        # 1 - r = 2/3 cancels a factor 2 of v's denominator 44: only v brings it to the low amounts
        "v-den-approval5-int-z": (k_approval(5, 2), (31, 38, 13, 31, 23), (9, 0, 2, 2)),
    }
    if label.startswith("uniform-u-"):
        # a tie between a and b with B = r*A = 0: the zero denominator
        rule, scores = tie[label.removeprefix("uniform-u-")]
        z = (1, 0, 0) if rule.m == 4 else (2, 0, 0, 0)
        return ManipulationInstance._build(rule, scores, 0, 1, 1, None), z
    rule, scores, z = cases[label]
    inst = ManipulationInstance.from_scores(rule, scores)
    if z is None:
        mean = inst.board.mean
        z = q_stratified(MarginPair(scores[inst.a] - mean, mean - scores[inst.b]), rule)[1]
    return inst, z


PINNED_BRANCH_WITNESSES = {
    "m3-borda": "923e875ee48dee18",
    "m3-hard": "c5bf8e6dfeac500d",
    "m3-int-z": "35c9e87ca742ec13",
    "a0-plurality4": "921becbeabc903e6",
    "a0-plurality5-int-z": "75adfa3c2a683862",
    "uniform-u-borda4": "08605f15814afa4c",
    "uniform-u-plurality5": "55c2692ce0d7c0e4",
    "int-z-borda4": "871fb0d9d30fee49",
    "int-z-two-dot": "d09db1c14c062de6",
    "v-den-approval5-int-z": "e380b2050e9764e1",
}


@pytest.mark.parametrize("label", PINNED_BRANCH_WITNESSES)
def test_witness_branches_are_pinned(label):
    """Plans recorded earlier, for each branch of the exact construction.

    m = 3, A = 0 (r = 0), a zero denominator (uniform u), integer z, and a
    v whose denominator no other scalar carries.
    """
    inst, z = _witness_branch_case(label)
    plan = witness_from_z(inst, z)
    assert verify_stratified_plan(inst, plan, z) == []
    text = repr((sorted(plan.x.items()), sorted(plan.y.items())))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_BRANCH_WITNESSES[label]


def test_every_witness_is_re_verified(monkeypatch):
    """A plan the re-check refuses is never returned, on the exact and the float path."""
    import coalition_lp.reduction as reduction

    cases = [_witness_branch_case(label) for label in PINNED_BRANCH_WITNESSES]
    rule, board = normalize((1.0, 0.6, 0.0)), (110.4, 97.0, 92.6)
    margins = MarginPair.from_scoreboard(scoreboard_like(board))
    cases.append((ManipulationInstance.from_scores(rule, board), q_stratified(margins, rule)[1]))
    refused = []

    def refuse(inst, plan, z=None, tol=0.0):
        refused.append(plan)
        return ["refused"]

    monkeypatch.setattr(reduction, "verify_stratified_plan", refuse)
    for inst, z in cases:
        with pytest.raises(ConstructionFailed, match="refused"):
            witness_from_z(inst, z)
    assert len(refused) == len(cases)


def test_witness_float_rule():
    rule = normalize((1.0, 0.6, 0.0))
    board = (110.4, 97.0, 92.6)
    inst = ManipulationInstance.from_scores(rule, board)
    margins = MarginPair.from_scoreboard(scoreboard_like(board))
    value, z = q_stratified(margins, rule)
    plan = witness_from_z(inst, z)
    assert verify_stratified_plan(inst, plan, z, tol=1e-7) == []
    assert plan.size == pytest.approx(value)


def scoreboard_like(scores):
    from coalition_lp.election import Scoreboard

    return Scoreboard(tuple(scores), 0)


def test_witness_rejects_infeasible_z():
    inst = ManipulationInstance.from_profile(PROFILE_A, borda(3))
    with pytest.raises(ZInfeasible):
        witness_from_z(inst, (0, 0))


def test_witness_rows_are_checked_exactly():
    """z on a row passes; z short of the lift row by 1/6, the least a z can miss it here, fails."""
    inst = ManipulationInstance.from_scores(borda(3), (10, 7, 6))  # A + B >= 3 and B >= 2/3
    for z in ((4, 2), (5, Fraction(4, 3))):
        assert verify_stratified_plan(inst, witness_from_z(inst, z), z) == []
    with pytest.raises(ZInfeasible, match="lift"):
        witness_from_z(inst, (5, 1))
    with pytest.raises(ZInfeasible, match="negative"):
        witness_from_z(inst, (9, Fraction(-1, 7)))


def test_witness_reads_float_inputs_exactly():
    """A float z is read exactly, each amount rounded once; its rows and signs get float slack."""
    inst = ManipulationInstance.from_scores(borda(3), (10, 7, 6))  # A + B >= 3 and B >= 2/3
    exact = witness_from_z(inst, (5, Fraction(4, 3)))
    plan = witness_from_z(inst, (5.0, 4 / 3))
    for got, want in ((plan.x, exact.x), (plan.y, exact.y)):
        assert got.keys() == want.keys() and {type(a) for a in got.values()} == {float}
        assert all(got[t] == pytest.approx(want[t], rel=1e-15) for t in got)
    short = 2 - 1e-9  # within the 1e-8 slack of both rows; exactly, it misses them
    plan = witness_from_z(inst, (4.0, short))
    assert verify_stratified_plan(inst, plan, (4, short), tol=1e-7) == []
    with pytest.raises(ZInfeasible, match="misses"):
        witness_from_z(inst, (4, Fraction(short)))
    assert witness_from_z(inst, (-1e-10, 6.0)).x.keys() == witness_from_z(inst, (0, 6)).x.keys()
    with pytest.raises(ZInfeasible, match="negative"):
        witness_from_z(inst, (-1e-8, 6.0))


def test_stratified_check_needs_m_minus_1_totals():
    inst = ManipulationInstance.from_scores(borda(3), (10, 7, 6))
    plan = witness_from_z(inst, (4, 2))
    for z in ((1,), (4, 2, 0)):
        with pytest.raises(ValueError, match=r"m-1 = 2 entries"):
            verify_stratified_plan(inst, plan, z=z)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_z_is_refused(bad):
    """A non-finite z entry is InvalidInput, not an OverflowError or ValueError from lcd_ints."""
    inst = ManipulationInstance.from_scores(borda(3), (10, 7, 6))
    plan = witness_from_z(inst, (4, 2))
    for z in ((bad, 0), (4, bad)):
        with pytest.raises(InvalidInput, match=rf"^z must be finite numbers, got {bad}$"):
            witness_from_z(inst, z)
        with pytest.raises(InvalidInput, match=rf"^z must be finite numbers, got {bad}$"):
            verify_stratified_plan(inst, plan, z=z)


def test_stratum_sums_count_each_recruit_in_its_own_stratum():
    """Recruits moved into stratum 1, into the last one and outside them all: each stratum sums
    only its own recruits, word for word as a walk over inst.strata reports them."""
    rule, board = borda(5), (40, 33, 31, 30, 26)
    inst = ManipulationInstance.from_scores(rule, board)
    _value, z = q_stratified(MarginPair.from_scoreboard(scoreboard_like(board)), rule)
    plan = witness_from_z(inst, z)
    assert verify_stratified_plan(inst, plan, z) == []
    outside = next(t for t in inst.pref_types if t not in inst.ba_types)
    extra = {inst.strata[0][-1]: Fraction(1, 3), inst.strata[-1][0]: Fraction(5, 2), outside: 7}
    x = dict(plan.x)
    for t, amt in extra.items():
        x[t] = x.get(t, 0) + amt
    walked = [f"stratum {i + 1} sums to {got}, expected {z[i]}"
              for i, stratum in enumerate(inst.strata)
              if (got := sum(Fraction(x.get(t, 0)) for t in stratum)) != z[i]]
    issues = verify_stratified_plan(inst, CoalitionPlan(x, plan.y), z)
    assert [s for s in issues if s.startswith("stratum")] == walked
    assert [s.split(" sums")[0] for s in walked] == ["stratum 1", f"stratum {rule.m - 1}"]
    assert f"recruit type {outside} outside the allowed pool" in issues


def test_witness_needs_runner_up_target():
    inst = ManipulationInstance.from_profile(PROFILE_A, borda(3), beta=2)
    with pytest.raises(ValueError):
        witness_from_z(inst, (1, 0))
