import dataclasses
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from coalition_lp import lp
from coalition_lp.election import parse_rule, sample_ic, scoreboard, top_two
from coalition_lp.exact import ManipulationInstance, _coalition_lp, _lp_value, q2
from coalition_lp.lp import (
    DimensionMismatch, LinearProgram, LpStatus, StatusMismatch, dual_gap_check, solve,
)
from coalition_lp.reduction import MarginPair, q_stratified
from oracles import enumerate_lp


def test_minimal_cover():
    out = solve(LinearProgram((1, 1), "min", (((1, 1), ">=", 2),)))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(2)


def test_infeasible():
    prog = LinearProgram((1,), "min", (((1,), "<=", 1), ((1,), ">=", 2)))
    out = solve(prog)
    assert out.status is LpStatus.INFEASIBLE
    assert out.value == float("inf")


def test_unbounded_max():
    out = solve(LinearProgram((1,), "max", (((1,), ">=", 0),)))
    assert out.status is LpStatus.UNBOUNDED
    assert out.value == float("inf")


def test_equality_row():
    prog = LinearProgram((2, 3), "min", (((1, 1), "=", 4), ((1, 0), "<=", 3)))
    out = solve(prog)
    assert out.status is LpStatus.OPTIMAL
    # push everything onto the cheaper variable, capped at 3
    assert out.value == pytest.approx(2 * 3 + 3 * 1)


def test_dual_polytope_vertex():
    # the runner-up dual for the four-candidate linear weight vector,
    # margins (3/2, 1/2); the optimum sits on the diagonal corner
    rows = (
        ((Fraction(2, 3), Fraction(0)), "<=", 1),
        ((Fraction(1, 3), Fraction(1, 3)), "<=", 1),
        ((Fraction(0), Fraction(2, 3)), "<=", 1),
        ((1, -1), "<=", 0),
    )
    out = solve(LinearProgram((Fraction(3, 2), Fraction(1, 2)), "max", rows))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == Fraction(3)
    assert out.point == (Fraction(3, 2), Fraction(3, 2))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearProgram((1, 2), "min", (((1,), ">=", 0),))


def test_bad_sense_rejected():
    with pytest.raises(ValueError):
        LinearProgram((1,), "argmin", (((1,), ">=", 0),))


STATUS_NAMES = {
    LpStatus.OPTIMAL: "optimal",
    LpStatus.INFEASIBLE: "infeasible",
    LpStatus.UNBOUNDED: "unbounded",
}


def _random_program(rng):
    n = rng.choice([2, 3])
    n_rows = rng.randint(2, 5)
    rows = []
    for _ in range(n_rows):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        rel = rng.choice(["<=", ">=", "="])
        rows.append((coeffs, rel, rng.randint(-5, 5)))
    objective = tuple(rng.randint(-4, 4) for _ in range(n))
    sense = rng.choice(["min", "max"])
    return LinearProgram(objective, sense, tuple(rows))


def test_against_enumeration():
    rng = random.Random(20240817)
    for _ in range(300):
        prog = _random_program(rng)
        status, value = enumerate_lp(prog.objective, prog.sense, prog.rows)
        out = solve(prog)
        assert STATUS_NAMES[out.status] == status, prog
        if status == "optimal":
            assert out.value == pytest.approx(value, abs=1e-7), prog


def test_exact_matches_float():
    rng = random.Random(99)
    for _ in range(100):
        prog = _random_program(rng)
        out_f = solve(prog)
        exact = LinearProgram(
            tuple(Fraction(c) for c in prog.objective),
            prog.sense,
            tuple((tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))
                  for coeffs, rel, rhs in prog.rows),
        )
        out_q = solve(exact)
        assert out_f.status is out_q.status
        if out_f.status is LpStatus.OPTIMAL:
            assert isinstance(out_q.value, Fraction)
            assert float(out_q.value) == pytest.approx(out_f.value, abs=1e-7)


def _random_fraction_program(rng):
    def q():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6]))

    n = rng.choice([2, 3])
    rows = tuple(
        (tuple(q() for _ in range(n)), rng.choice(["<=", ">=", "="]), q())
        for _ in range(rng.randint(2, 5))
    )
    return LinearProgram(tuple(q() for _ in range(n)), rng.choice(["min", "max"]), rows)


def test_exact_fraction_programs_match_float_and_enumeration():
    rng = random.Random(4111)
    for _ in range(150):
        prog = _random_fraction_program(rng)
        out_q = solve(prog)
        out_f = solve(LinearProgram(
            tuple(float(c) for c in prog.objective),
            prog.sense,
            tuple((tuple(float(c) for c in coeffs), rel, float(rhs))
                  for coeffs, rel, rhs in prog.rows),
        ))
        status, value = enumerate_lp(prog.objective, prog.sense, prog.rows)
        assert STATUS_NAMES[out_q.status] == status, prog
        assert out_f.status is out_q.status, prog
        if status == "optimal":
            assert isinstance(out_q.value, Fraction)
            assert all(isinstance(x, Fraction) for x in out_q.point)
            assert out_q.value == sum(c * x for c, x in zip(prog.objective, out_q.point))
            assert float(out_q.value) == pytest.approx(value, abs=1e-7), prog
            assert float(out_q.value) == pytest.approx(out_f.value, abs=1e-7), prog


def _check_exact(prog, status, value=None, point=None):
    """Solve prog; check the hand-derived answer and the enumeration oracle agree with it."""
    out = solve(prog)
    oracle_status, oracle_value = enumerate_lp(prog.objective, prog.sense, prog.rows)
    assert out.status is status and oracle_status == STATUS_NAMES[status]
    if status is LpStatus.OPTIMAL:
        assert type(out.value) is Fraction and out.value == value
        assert all(type(x) is Fraction for x in out.point) and out.point == point
        assert oracle_value == pytest.approx(value)
    else:
        assert out.point is None
    return out


def test_exact_redundant_equality_row():
    # The second row is half the first.  Phase 1 enters x, both ratios are 2 and
    # the tie goes to the first artificial; the second artificial stays basic at
    # 0 with zeros in every original column, so its row is dropped.
    prog = LinearProgram(
        (1, 1), "min", (((1, 1), "=", 2), ((Fraction(1, 2), Fraction(1, 2)), "=", 1)),
    )
    _check_exact(prog, LpStatus.OPTIMAL, Fraction(2), (Fraction(2), Fraction(0)))


def test_exact_drive_out_pivots_on_a_negative_entry():
    # z = x, y = 0 and x >= 1/2, so min -x + 2z = x is 1/2 at (1/2, 0, 1/2).
    # Phase 1 ends with the first artificial basic at 0, and the first nonzero
    # original entry of its row is y's -1/3: the drive-out pivot is negative.
    prog = LinearProgram((-1, 0, 2), "min", (
        ((Fraction(-1, 2), 0, Fraction(1, 2)), "=", 0),
        ((Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 3)), ">=", 0),
        ((2, 2, 0), ">=", 1),
    ))
    _check_exact(prog, LpStatus.OPTIMAL, Fraction(1, 2),
                 (Fraction(1, 2), Fraction(0), Fraction(1, 2)))


def test_exact_infeasible_and_unbounded():
    infeasible = LinearProgram((Fraction(1, 3), 1), "min", (
        ((Fraction(1, 2), Fraction(1, 2)), "<=", Fraction(1, 4)),
        ((1, 1), ">=", Fraction(3, 4)),
    ))
    assert _check_exact(infeasible, LpStatus.INFEASIBLE).value == math.inf
    # x = 2t, y = 3t stays feasible for every t >= 0 and the objective grows by 2t.
    unbounded = LinearProgram((Fraction(1, 2), Fraction(1, 3)), "max", (
        ((1, Fraction(-2, 3)), "<=", Fraction(1, 3)),
        ((Fraction(1, 2), -1), "<=", Fraction(5, 7)),
    ))
    assert _check_exact(unbounded, LpStatus.UNBOUNDED).value == math.inf


def test_exact_max_with_fraction_coefficients_and_negative_rhs():
    # x + y <= 3/2 and x <= 1, written with negative right-hand sides; the
    # vertices (1, 0), (1, 1/2) and (0, 3/2) give 1/2, 2/3 and 1/2.
    prog = LinearProgram((Fraction(1, 2), Fraction(1, 3)), "max", (
        ((-1, -1), ">=", Fraction(-3, 2)),
        ((-1, 0), ">=", -1),
    ))
    _check_exact(prog, LpStatus.OPTIMAL, Fraction(2, 3), (Fraction(1), Fraction(1, 2)))


def test_rhs_scaling():
    rows = (((1, 2), ">=", 3), ((2, 1), ">=", 3))
    base = solve(LinearProgram((1, 1), "min", rows))
    scaled = solve(LinearProgram((1, 1), "min",
                                 tuple((c, rel, 10 * rhs) for c, rel, rhs in rows)))
    assert scaled.value == pytest.approx(10 * base.value)


def test_dual_gap_on_a_pair():
    primal = LinearProgram((3, 2), "min", (((1, 1), ">=", 2), ((2, 1), ">=", 3)))
    dual = LinearProgram((2, 3), "max", (((1, 2), "<=", 3), ((1, 1), "<=", 2)))
    assert dual_gap_check(primal, dual) <= 1e-9


def test_dual_gap_rejects_mismatch():
    optimal = LinearProgram((1,), "min", (((1,), ">=", 1),))
    infeasible = LinearProgram((1,), "max", (((1,), "<=", -1),))
    with pytest.raises(StatusMismatch):
        dual_gap_check(optimal, infeasible)


def test_dual_gap_infeasible_unbounded_pair():
    infeasible = LinearProgram((1, 1), "min", (((1, 1), "<=", -1),))
    unbounded = LinearProgram((1, 1), "max", (((1, -1), "<=", 0),))
    assert dual_gap_check(infeasible, unbounded) == 0


def test_is_rational_takes_ints_and_fractions_only():
    assert LinearProgram((1, Fraction(1, 2)), "min", (((1, 2), ">=", Fraction(3)),)).is_rational
    assert not LinearProgram((1, 1), "min", (((1, 2), ">=", 3.0),)).is_rational
    assert not LinearProgram((1, True), "min", (((1, 2), ">=", 3),)).is_rational


def test_exact_recheck_refuses_a_bad_point(monkeypatch):
    # x0 >= 1, x1/3 <= 2/3 and x2/2 = 1; the rows are scaled once, as solve scales them
    prog = LinearProgram((1, 1, 1), "min", (
        ((1, 0, 0), ">=", 1),
        ((0, Fraction(1, 3), 0), "<=", Fraction(2, 3)),
        ((0, 0, Fraction(1, 2)), "=", 1),
    ))
    rows = [(*lp._scaled((*c, b), True), rel) for c, rel, b in prog.rows]
    lp._verify_feasible(rows, [2, 4, 4], 2, True)  # (1, 2, 2) fits every row
    for xs, scale, broken in (
        ([1, 4, 4], 2, r"row 0 \(>=\)"),
        ([1, 3, 2], 1, r"row 1 \(<=\)"),
        ([1, 2, 3], 1, r"row 2 \(=\)"),
        ([3, -1, 6], 3, "negative coordinate"),
    ):
        with pytest.raises(lp.NumericalFailure, match=broken):
            lp._verify_feasible(rows, xs, scale, True)
    # solve runs the same check on its own point, (1, 0, 2): moved off it, the point is refused
    real = lp._verify_feasible
    monkeypatch.setattr(lp, "_verify_feasible",
                        lambda rows, xs, scale, exact: real(rows, [x - 1 for x in xs], scale, exact))
    with pytest.raises(lp.NumericalFailure, match="row 0"):
        solve(prog)


# Every test above whose programs are exact; the pinned digest below replays them.
EXACT_PROGRAM_TESTS = (
    test_minimal_cover, test_infeasible, test_unbounded_max, test_equality_row,
    test_dual_polytope_vertex, test_against_enumeration, test_exact_matches_float,
    test_exact_fraction_programs_match_float_and_enumeration,
    test_exact_redundant_equality_row, test_exact_drive_out_pivots_on_a_negative_entry,
    test_exact_infeasible_and_unbounded,
    test_exact_max_with_fraction_coefficients_and_negative_rhs, test_rhs_scaling,
    test_dual_gap_on_a_pair, test_dual_gap_rejects_mismatch,
    test_dual_gap_infeasible_unbounded_pair,
)
PINNED_RULES = ("plurality", "borda", "approval:2", "antiplurality", "weights:1,1,1/2,0")


def _full_pool_lp(inst, pool):
    """The coalition LP over all of pool: q3 over pref_types, program (2) over ba_types."""
    return _lp_value(_coalition_lp(inst, pool))


def _solve_the_bounds():
    """q3, q2 (slack 1), q_program2 and q_stratified on small IC profiles, m = 3..6.

    q3 and q_program2 are solved over their full pools, as recorded: the
    library solves them over fewer columns, with the same values.  q3 and q2
    run for every non-winner target at m <= 4, q2 only for the runner-up at
    m = 5, and neither q2 nor the other targets at m = 6, where one q2 has 360
    bound rows and takes seconds in exact arithmetic.
    """
    for m, n, profiles in ((3, 12, 2), (4, 20, 2), (5, 30, 1), (6, 40, 1)):
        for text in PINNED_RULES:
            if text.startswith("weights:") and m != 4:
                continue
            rule = parse_rule(text, m)
            for i in range(profiles):
                profile = sample_ic(n, m, (31, m, i))
                board = scoreboard(profile, rule)
                a, b, strict = top_two(board)
                if not strict:
                    continue
                for beta in range(m):
                    if beta == a or (m == 6 and beta != b):
                        continue
                    inst = ManipulationInstance.from_profile(profile, rule, beta)
                    _full_pool_lp(inst, inst.pref_types)
                    if m <= 4 or (m == 5 and beta == b):
                        q2(inst, 1)
                runner_up = ManipulationInstance.from_profile(profile, rule)
                _full_pool_lp(runner_up, runner_up.ba_types)
                q_stratified(MarginPair.from_scoreboard(board), rule)


PINNED_EXACT_SOLVES = (825, "94e46b3d6b61d7ee681ad5e6d95a92c423ca5f5f03eeb0e0abcc820bc98e9ed9")


def _replayed_exact_solves(monkeypatch):
    """(program, outcome) of every exact solve of EXACT_PROGRAM_TESTS and of the bound corpus."""
    seen = []

    def recording(program):
        out = real_solve(program)
        if program.is_rational:
            seen.append((program, out))
        return out

    real_solve = lp.solve
    monkeypatch.setattr(lp, "solve", recording)
    monkeypatch.setitem(globals(), "solve", recording)
    for test in EXACT_PROGRAM_TESTS:
        test()
    _solve_the_bounds()
    return seen


def test_exact_pivots_are_pinned(monkeypatch):
    """Every exact solve of the tests above and of the bound corpus, hashed.

    The digest of repr((status, value, point)) over all of them was recorded
    before the exact tableau moved from Fraction entries to integer rows, so
    it pins the pivot path, not just the optimal values.
    """
    seen = [repr((out.status, out.value, out.point))
            for _, out in _replayed_exact_solves(monkeypatch)]
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    assert (len(seen), digest) == PINNED_EXACT_SOLVES


def _posed_column(program, label):
    """The column of an LpOutcome.basis label in the program's rows as posed."""
    n, r = program.n_vars, len(program.rows)
    if label < n:
        return [Fraction(coeffs[label]) for coeffs, _, _ in program.rows]
    i = (label - n) % r
    _, rel, rhs = program.rows[i]
    if label < n + r:  # a slack (+1) or a surplus (-1); an equality row has neither
        assert rel != "="
        sign = 1 if rel == "<=" else -1
    else:  # an artificial, +1 in the row with its rhs made >= 0
        sign = 1 if rhs >= 0 else -1
    return [Fraction(sign * (k == i)) for k in range(r)]


def _basic_values(program, basis):
    """The unique values of the basis's columns that meet every row as posed with equality."""
    size = len(basis)
    a = [[*col, Fraction(rhs)] for *col, (_, _, rhs) in
         zip(*(_posed_column(program, k) for k in basis), program.rows)]
    for c in range(size):
        p = next((i for i in range(c, len(a)) if a[i][c]), None)
        assert p is not None, "the basis's columns are dependent"
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(len(a)):
            if i != c and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[c])]
    assert not any(row[-1] for row in a[size:]), "a dropped row is not redundant"
    return [row[-1] for row in a[:size]]


def test_outcomes_carry_their_final_basis(monkeypatch):
    """LpOutcome.basis on every exact solve test_exact_pivots_are_pinned replays.

    An optimal basis holds no artificial, and its columns, solved against the
    rhs, give the returned point.  An infeasible program's phase-1 basis is a
    non-negative basic solution with an artificial above 0, and an unbounded
    program has none.  The basis is left out of the outcome's repr and equality.
    """
    statuses = Counter()
    for program, out in _replayed_exact_solves(monkeypatch):
        statuses[out.status] += 1
        bare = dataclasses.replace(out, basis=())
        assert out == bare and repr(out) == repr(bare)
        n, r = program.n_vars, len(program.rows)
        if out.status is LpStatus.UNBOUNDED:
            assert out.basis == ()
            continue
        assert type(out.basis) is tuple and len(set(out.basis)) == len(out.basis) <= r
        values = dict(zip(out.basis, _basic_values(program, out.basis)))
        assert all(v >= 0 for v in values.values())
        if out.status is LpStatus.OPTIMAL:
            assert all(k < n + r for k in out.basis)
            assert out.point == tuple(values.get(j, 0) for j in range(n))
        else:
            assert any(v > 0 for k, v in values.items() if k >= n + r)
    assert len(statuses) == 3, statuses
