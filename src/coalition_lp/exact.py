"""Exact minimum-coalition computations on concrete profiles.

The core object is a manipulation instance: a profile (or bare scoreboard),
a rule, the strict winner a, the runner-up b, and a manipulation target
beta.  A coalition plan pairs recruited sincere types x with cast insincere
ballots y; it succeeds when beta's final score weakly beats every other
candidate's.

Three routes to a value live here:

* q1 / mcs_exact: exhaustive integer search (the ground truth, m <= 5);
* q2 / q3: the LP relaxations with shrunk or dropped recruitment bounds;
* q_program2: the LP over the adjacent strata of the runner-up only.

q3 and q_program2 solve over the columns that can matter.  A recruit type
ranking beta above a is dominated by the type that moves beta down to just
above a and everyone in between up one place: w is non-increasing, so no row
entry w[p(alpha)] - w[p(beta)] falls, while the cost and the size row stay.
Only the (m-1)! types with a directly below beta are kept (ba_types when beta
is the runner-up, so q3 there is program (2)), and of recruits or ballots
with identical columns only one: plurality at m = 6 goes from 360 + 120
columns to 5 + 1.  The value is unchanged.  q2 keeps the whole pool, since
its per-type bounds break the dominance, and so does a float rule, whose q3
and q_program2 are float solves.  A plan is verified in one arithmetic:
every amount and z entry is read exactly (lp.lcd_ints), floats too, and
summed and scored in ints.

The certificates, the search, the plan check and the witness read the
scores as the instance's Scoreboard.ints, in its order, both computed once
per board; the instances of one mcs_outcome call share one board.

A rational rule answers q3 and q_program2 from certificates where it can.
With the winner a relabelled 0, the target beta 1 and the others 2.. by
descending score, every (a, beta) is one program per rule (_canonical_lp)
and only its right-hand side D, the leads over beta, moves.  An optimal
basis B stays optimal wherever B^-1 D >= 0, since a change of right-hand
side keeps it dual feasible (Bertsimas & Tsitsiklis, Introduction to Linear
Optimization, 1997, section 5.1), and a Farkas ray y proves every D with
y . D > 0 unreachable.  A right-hand side that none of the rule's stored
certificates (at most MAX_CERTIFICATES) answers is solved, and the
certificate its final basis (LpOutcome.basis) gives is checked once,
exactly, before it is stored.  An LP's optimal value is unique, so no value
depends on what is stored or on the order of calls.  The program and its
certificates are built once per rule object and freed with it.

The search tries coalition sizes k upward from ceil(q3).  It reads a type
only through its score row, so types with equal rows are interchangeable
(Margot, "Symmetry in integer linear programming", 2010): it recruits from
score classes, one per distinct row with the members' counts summed, and
casts one ballot per distinct row.  A class carries its gains, how far one
recruit narrows each other candidate's lead over beta, and a ballot its
loads, the score it gives each other candidate.  At each k the search walks
class multisets depth first on the m - 1 leads over beta, each take
lowering them by one more copy of the class's gains, and at each leaf looks
for k target-first ballots whose loads fit every candidate's cap, the room
its lead leaves; each take of a ballot row adds one more copy of its loads.
Every node checks a score bound first: if even the most helpful recruits
still to come, followed by the least loading ballots, leave some candidate
(or all of them together) over their cap, the subtree is cut.  Only
subtrees without a working leaf are cut, so the plan found is the one the
uncut search finds, in far fewer nodes.  The classes, the ballots and the
ballot side of that bound (_score_classes) are built once per rule for each
(a, beta) and ballot set; only the recruit side, which depends on the
classes the profile fills, is built per search.  The plan is spread back
over types the way a walk type by type, smaller takes first, loads equal
rows: a class's take goes to its members from the last one back, each up to
its count, and a ballot row is cast as the last allowed type holding it.  A
search that still exceeds NODE_BUDGET raises InstanceTooLarge naming the
target, the size, and the nodes and seconds spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul
from time import perf_counter

from . import lp
from .election import (
    InvalidInput,
    Profile,
    ScoreVector,
    Scoreboard,
    _type_maps,
    integer_weights,
    per_rule,
    scoreboard,
    top_two,
)


class NotStrictWinner(Exception):
    pass


class InstanceTooLarge(Exception):
    pass


MAX_EXACT_M = 5
NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class CoalitionPlan:
    """Recruited sincere types (x) and the ballots they cast instead (y)."""

    x: dict  # ranking tuple -> amount
    y: dict

    @property
    def size(self):
        return sum(self.x.values())

    def as_dict(self) -> dict:
        size = float(self.size)
        lists = {key: [{"ranking": list(r), "count": c if isinstance(c, int) else float(c)}
                       for r, c in sorted(part.items())]
                 for key, part in (("recruits", self.x), ("ballots", self.y))}
        return {"size": int(size) if size.is_integer() else size, **lists}


def _strict_top_two(board, what):
    """(winner, runner-up) of the board; NotStrictWinner, naming `what`, on a tie for first."""
    a, b, strict = top_two(board)
    if not strict:
        raise NotStrictWinner(f"the {what} has a tie for first place")
    return a, b


# One m <= 5 pass fits: instances key (a, b, beta) and the per-rule tables (a, beta, beta),
# at most 80 keys at m = 5 and 36 at m = 4.  An m = 8 entry holds ~430 KB, so a caller that
# builds instances for 128 or more (a, b, beta) at m = 8 keeps ~55 MB here.
@lru_cache(maxsize=128)
def _type_sets(m, a, b, beta):
    """pref_types, first_types, strata, ba_types and stratum_of of an instance, in one pass."""
    pref, first, strata, stratum_of = [], [], [[] for _ in range(m - 1)], {}
    for t, p in _type_maps(m)[1].items():
        if p[beta] < p[a]:
            pref.append(t)
        if p[beta] == 0:
            first.append(t)
        if p[a] == p[b] + 1:
            strata[p[b]].append(t)
            stratum_of[t] = p[b]
    strata = tuple(map(tuple, strata))
    return tuple(pref), tuple(first), strata, sum(strata, ()), stratum_of


def _bare_board(scores):
    """The Scoreboard of bare scores; InvalidInput for a non-finite one."""
    scores = tuple(scores)
    if odd := [s for s in scores if isinstance(s, float) and not math.isfinite(s)]:
        raise InvalidInput(f"scores must be finite numbers, got {odd[0]}")
    return Scoreboard(scores, 0)


@dataclass(frozen=True)
class ManipulationInstance:
    """A profile/scoreboard with designated winner a, runner-up b, target beta.

    pref_types are the types that rank beta above a (the only voters with an
    incentive to join a coalition for beta).  first_types rank beta first.
    strata[i-1] holds the types ranking b in place i and a in place i+1; their
    union is ba_types, and stratum_of maps each of those types to i-1.  The
    strata always refer to the runner-up b, whatever beta is.
    """

    rule: ScoreVector
    scores: tuple
    a: int
    b: int
    beta: int
    profile: Profile | None
    pref_types: tuple
    first_types: tuple
    strata: tuple
    ba_types: tuple
    stratum_of: dict = field(repr=False, compare=False)  # shared with _type_sets' cache

    @classmethod
    def _build(cls, rule, scores, a, b, beta, profile):
        """scores: a Scoreboard, whose ints and order the instance shares, or bare scores."""
        if beta == a:
            raise InvalidInput("the manipulation target must differ from the winner")
        board = scores if isinstance(scores, Scoreboard) else _bare_board(scores)
        inst = cls(rule, board.scores, a, b, beta, profile, *_type_sets(rule.m, a, b, beta))
        inst.__dict__["board"] = board  # the cached_property's slot, seeded
        return inst

    @classmethod
    def _from_board(cls, rule, board, beta, profile, what):
        a, b = _strict_top_two(board, what)
        return cls._build(rule, board, a, b, b if beta is None else beta, profile)

    @classmethod
    def from_profile(cls, profile: Profile, rule: ScoreVector, beta: int | None = None):
        return cls._from_board(rule, scoreboard(profile, rule), beta, profile, "profile")

    @classmethod
    def from_scores(cls, rule: ScoreVector, scores, beta: int | None = None):
        """Build from a bare scoreboard; q1/q2 are unavailable without a profile."""
        if len(scores) != rule.m:
            raise InvalidInput("scores and rule must share m")
        return cls._from_board(rule, _bare_board(scores), beta, None, "scoreboard")

    @property
    def m(self) -> int:
        return self.rule.m

    @cached_property  # kept in the instance's __dict__, which eq, hash and replace() skip
    def board(self) -> Scoreboard:
        """The scores' Scoreboard, read by every exact route through its ints and order."""
        return Scoreboard(self.scores, 0)

    @property
    def mean_score(self):
        return self.board.mean

    def count_of(self, ranking) -> int:
        if self.profile is None:
            raise InvalidInput("this instance has no profile")
        return self.profile.counts[_type_maps(self.m)[0][tuple(ranking)]]


# --------------------------------------------------------------------- #
# Plan verification
# --------------------------------------------------------------------- #

def verify_plan(inst, plan, *, pool, ballots, bounds=False, strata_z=None, tol=0.0):
    """Return a list of constraint violations (empty when the plan is sound).

    pool/ballots delimit the allowed supports of x and y.  With bounds=True
    each x_t is checked against the profile count of t.  strata_z, when
    given, pins the per-stratum sums of x to the target z vector.  Every
    amount, score, z entry and tol is read exactly, floats too: the plan is
    summed and scored in ints over common denominators, and a constraint is
    violated when it is missed by more than tol.  A non-finite amount is a
    violation, and nothing else is checked then.
    """
    if odd := [f"non-finite amount {amt} for {t}" for part in (plan.x, plan.y)
               for t, amt in part.items() if isinstance(amt, float) and not math.isfinite(amt)]:
        return odd
    tol = Fraction(tol)

    def missed(short, den):  # short / den < -tol: the int's sign first, a Fraction only for a miss
        return short < 0 and (not tol or Fraction(short, den) < -tol)

    issues = []
    nums, den = lp.lcd_ints((*plan.x.values(), *plan.y.values()))
    x, y = dict(zip(plan.x, nums)), dict(zip(plan.y, nums[len(plan.x):]))
    pool, ballots = set(pool), set(ballots)
    for t, amt in x.items():
        if t not in pool:
            issues.append(f"recruit type {t} outside the allowed pool")
        if missed(amt, den):
            issues.append(f"negative recruitment {plan.x[t]} for {t}")
        if bounds and missed(inst.count_of(t) * den - amt, den):
            issues.append(f"recruited {plan.x[t]} of type {t}, only {inst.count_of(t)} exist")
    for t, amt in y.items():
        if t not in ballots:
            issues.append(f"ballot type {t} outside the allowed set")
        if missed(amt, den):
            issues.append(f"negative ballot count {plan.y[t]} for {t}")
    xs, ys = sum(x.values()), sum(y.values())
    if missed(-abs(xs - ys), den):
        issues.append(f"coalition size mismatch: recruits {Fraction(xs, den)}, "
                      f"ballots {Fraction(ys, den)}")
    if strata_z is not None:
        zs, zden = lp.lcd_ints(strata_z)
        sums = [0] * len(inst.strata)
        for t, amt in x.items():
            if (i := inst.stratum_of.get(t)) is not None:
                sums[i] += amt
        for i, got in enumerate(sums):
            if missed(-abs(got * zden - zs[i] * den), den * zden):
                got = Fraction(got, den)
                issues.append(f"stratum {i + 1} sums to {got}, expected {strata_z[i]}")
    # lhs(alpha) = sum_y amt * (scale - row[alpha]) - sum_x amt * (row[target] - row[alpha]),
    # over unit; the leads over the target are over sden
    target = inst.beta
    scale, ints = integer_weights(inst.rule)
    unit = scale * den
    got_x, got_y = _candidate_totals(x, ints, inst.m), _candidate_totals(y, ints, inst.m)
    base = scale * ys - got_x[target]
    lead, sden = inst.board.ints
    for alpha in range(inst.m):
        if alpha != target:
            lhs, rhs = base - got_y[alpha] + got_x[alpha], lead[alpha] - lead[target]
            if missed(lhs * sden - rhs * unit, unit * sden):
                issues.append(f"candidate {alpha} stays ahead: "
                              f"{Fraction(lhs, unit)} < {Fraction(rhs, sden)}")
    return issues


def _candidate_totals(amounts, ints, m):
    """sum_t amounts[t] * ints[p_t(c)] for every candidate c, p_t(c) being c's place in t."""
    totals, places = [0] * m, _type_maps(m)[1]
    for t, amt in amounts.items():
        for c, p in enumerate(places[t]):
            totals[c] += amt * ints[p]
    return totals


def verify_integral_plan(inst, plan, tol=0.0):
    """Soundness check for a program-(1)-style plan against the instance's profile."""
    return verify_plan(
        inst, plan, pool=inst.pref_types, ballots=inst.first_types, bounds=True, tol=tol
    )


def verify_stratified_plan(inst, plan, z=None, tol=0.0):
    """Soundness check for a program-(2)-style plan (target must be the runner-up)."""
    if inst.beta != inst.b:
        raise InvalidInput("stratified plans target the runner-up")
    if z is not None and len(z) != inst.m - 1:
        raise InvalidInput(f"z needs m-1 = {inst.m - 1} entries, got {len(z)}")
    return verify_plan(
        inst, plan, pool=inst.ba_types, ballots=inst.first_types, strata_z=z, tol=tol
    )


# --------------------------------------------------------------------- #
# LP relaxations (programs with and without recruitment bounds)
# --------------------------------------------------------------------- #

def _coalition_lp(inst, xs, upper_slack=None) -> lp.LinearProgram:
    """Continuous coalition program: recruit from xs, cast ballots from first_types.

    upper_slack=K adds the shrunk recruitment bounds x_t <= N_t - K.
    """
    w, ys = inst.rule.weights, inst.first_types
    places = _type_maps(inst.m)[1]
    nx, ny = len(xs), len(ys)
    x_at, y_at = ([places[t] for t in types] for types in (xs, ys))
    rows = []
    for alpha in range(inst.m):
        if alpha == inst.beta:
            continue
        coeffs = [w[p[alpha]] - w[p[inst.beta]] for p in x_at]
        coeffs += [1 - w[p[alpha]] for p in y_at]
        rows.append((tuple(coeffs), ">=", inst.scores[alpha] - inst.scores[inst.beta]))
    rows.append((tuple([-1] * nx + [1] * ny), "=", 0))
    if upper_slack is not None:
        for j, t in enumerate(xs):
            coeffs = [0] * (nx + ny)
            coeffs[j] = 1
            rows.append((tuple(coeffs), "<=", inst.count_of(t) - upper_slack))
    return lp.LinearProgram(tuple([1] * nx + [0] * ny), "min", tuple(rows))


@per_rule
def _score_classes(rule, a, beta, unrestricted):
    """(classes, ballots, bounds): the search's recruits, ballots and ballot bounds for (a, beta).

    The search reads a type only through its score row, so types with equal
    rows are interchangeable.  classes maps the first type of each distinct
    row among those ranking beta above a to (types, indices, gains): every
    type with that row and its index, in all_rankings order, and how far one
    recruit narrows each other candidate's lead over beta, row[c] - row[beta];
    classes go in the order of their first types.  ballots holds, of each
    distinct row among the types ranking beta first (all in pref; every
    type when unrestricted), (the last type holding it, its loads row[c]),
    in that order.  gains and loads run over c != beta in label order.  The
    ballot bounds of the search's score bound come with them, built once per
    rule and target: (minload, minagg), the least load any ballot gives each
    other candidate and the least sum of a ballot's loads.
    """
    ranks, places = _type_maps(rule.m)
    ints = integer_weights(rule)[1]
    pref, first, *_ = _type_sets(rule.m, a, beta, beta)
    rows = {t: tuple(ints[p] for p in places[t]) for t in (ranks if unrestricted else pref)}
    others = [c for c in range(rule.m) if c != beta]
    members = {}
    for t in pref:
        members.setdefault(rows[t], []).append(t)
    classes = {types[0]: (tuple(types), tuple(map(ranks.get, types)),
                          tuple(row[c] - row[beta] for c in others))
               for row, types in members.items()}
    last = {rows[t]: t for t in (ranks if unrestricted else first)}
    ballots = tuple((t, tuple(rows[t][c] for c in others))
                    for t in sorted(last.values(), key=ranks.get))
    loads = [load for _, load in ballots]
    return classes, ballots, ([*map(min, zip(*loads))], min(map(sum, loads)))


def _lp_value(program: lp.LinearProgram):
    return _solved(program).value  # inf when infeasible


def _solved(program: lp.LinearProgram) -> lp.LpOutcome:
    out = lp.solve(program)
    if out.status is lp.LpStatus.UNBOUNDED:
        raise lp.NumericalFailure("a minimization with non-negative objective cannot be unbounded")
    return out


def _unbounded_lp_value(inst, pool):
    """Value of the coalition LP over pool, without recruitment bounds.

    A float rule's is the float solve over pool.  A rational rule's is
    _canonical_lp's, which has the same value, answered from the rule's
    certificates or by an exact solve.
    """
    if not inst.rule.is_rational:
        return _lp_value(_coalition_lp(inst, pool))
    return _certified_value(inst)


MAX_CERTIFICATES = 32  # per rule


@per_rule
def _canonical_lp(rule):
    """(cost, rows, certificates): a rational rule's q3 program, winner relabelled 0, target 1.

    Its recruits are the types that put 0 directly below 1, stratum by
    stratum, its ballots the types that rank 1 first; of types with identical
    columns only the first is kept.  Columns are scaled by the weights'
    common denominator S: row alpha, for alpha in 0, 2, .., m-1, reads
    S*(w[p(alpha)] - w[p(1)]) on a recruit and S*(1 - w[p(alpha)]) on a
    ballot, >= S*D[alpha] with D[alpha] the lead of alpha over beta; the last
    row is sum(ballots) - sum(recruits) = 0.  Every (a, beta) of a profile is
    this program with another D.  certificates is the rule's list of them,
    in the order found; it stops growing at MAX_CERTIFICATES, and a hit
    leaves it as it is.
    """
    scale, ints = integer_weights(rule)
    places = _type_maps(rule.m)[1]
    _, first, _, below, _ = _type_sets(rule.m, 0, 1, 1)
    others = [alpha for alpha in range(rule.m) if alpha != 1]
    recruits = dict.fromkeys(tuple(ints[p[alpha]] - ints[p[1]] for alpha in others)
                             for p in map(places.get, below))
    ballots = dict.fromkeys(tuple(scale - ints[p[alpha]] for alpha in others)
                            for p in map(places.get, first))
    columns = [(*column, -1) for column in recruits] + [(*column, 1) for column in ballots]
    cost = (1,) * len(recruits) + (0,) * len(ballots)
    return cost, tuple(zip(*columns)), []


def _certified_value(inst):
    """The unbounded LP value of an exact instance, from a certificate or by a solve that adds one.

    The others are relabelled 2.. in the board's order (descending score, ties
    by label), so that like scoreboards give like right-hand sides.  D is kept
    as ints d over the board's common denominator; a float score is read
    exactly.
    """
    a, beta = inst.a, inst.beta
    lead, den = inst.board.ints
    others = (c for c in inst.board.order if c != a and c != beta)
    d = [lead[c] - lead[beta] for c in (a, *others)]
    cost, rows, certificates = _canonical_lp(inst.rule)
    for certificate in certificates:
        value = _answer(certificate, d, den)
        if value is not None:
            return value
    scale = integer_weights(inst.rule)[0]
    program = lp.LinearProgram(cost, "min", (
        *((row, ">=", Fraction(scale * x, den)) for row, x in zip(rows, d)), (rows[-1], "=", 0)))
    out = _solved(program)
    certificate = _certificate(program, out.basis, scale, d, den, out.value)
    if certificate is not None and len(certificates) < MAX_CERTIFICATES:
        certificates.append(certificate)
    return out.value


def _answer(certificate, d, den):
    """The value a certificate proves for the right-hand side d / den, or None where it is silent.

    A basis (adj, det, y) answers y . d / (det * den) where adj . d >= 0,
    that is where its point B^-1 d is feasible; a Farkas ray (None, 0, y)
    answers inf where y . d > 0.
    """
    adj, det, y = certificate
    yd = sum(map(mul, y, d))
    if adj is None:
        return math.inf if yd > 0 else None
    for row in adj:
        if sum(map(mul, row, d)) < 0:
            return None
    return Fraction(yd, det * den)


def _certificate(program, basis, scale, d, den, value):
    """The certificate a _canonical_lp program's final basis gives, if it checks out; else None.

    With B the basis's columns and c_B their costs (phase 1's when value is
    inf), y = c_B adj(B), over det(B) > 0.  A basis must hold no artificial,
    y must be dual feasible (no reduced cost c_j det - y . A_j below 0, and
    y >= 0 on the >= rows), and its answer for d must be value.  A ray must
    have y . A_j <= 0 on every column, y >= 0 on the >= rows and y . d > 0.
    Only the >= rows' entries of adj and y are kept, since the last rhs is 0,
    and y is kept times the weights' scale S, as d is not.
    """
    n, r = len(program.objective), len(program.rows)
    columns = [*zip(*(coeffs for coeffs, _, _ in program.rows))]
    unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    column_of = dict(enumerate(columns))  # the labels of LpOutcome.basis
    column_of.update((n + i, tuple(-x for x in unit[i])) for i in range(r - 1))  # surpluses
    column_of.update((n + r + i, unit[i]) for i in range(r))  # artificials, all rhs >= 0
    if len(basis) != r or not all(k in column_of for k in basis):
        return None
    det, adj = _adjugate([column_of[k] for k in basis])
    if det == 0:
        return None
    if value is math.inf:
        cost = [int(k >= n + r) for k in basis]
    elif any(k >= n + r for k in basis):
        return None
    else:
        cost = [program.objective[k] if k < n else 0 for k in basis]
    y = [sum(map(mul, cost, col)) for col in zip(*adj)]
    if any(x < 0 for x in y[:-1]):
        return None
    if value is math.inf:
        certificate = (None, 0, tuple(y[:-1]))
        if any(sum(map(mul, y, col)) > 0 for col in columns):
            return None
    else:
        certificate = (tuple(row[:-1] for row in adj), det, tuple(scale * x for x in y[:-1]))
        if any(c * det < sum(map(mul, y, col)) for c, col in zip(program.objective, columns)):
            return None
    return certificate if _answer(certificate, d, den) == value else None


def _adjugate(cols):
    """(det, adj) of the square integer matrix with the given columns, det made >= 0."""
    size = len(cols)
    a = [[Fraction(col[i]) for col in cols] + [Fraction(int(i == k)) for k in range(size)]
         for i in range(size)]
    det = Fraction(1)
    for c in range(size):
        p = next((i for i in range(c, size) if a[i][c]), None)
        if p is None:
            return 0, None
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        pivot = a[c][c]
        det *= pivot
        a[c] = [x / pivot for x in a[c]]
        for i in range(size):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * z for x, z in zip(a[i], a[c])]
    det = abs(det)  # the right half is the inverse, adj / det whatever det's sign
    return int(det), [[int(x * det) for x in row[size:]] for row in a]


def q3(inst: ManipulationInstance):
    """LP lower bound for q1: no integrality, no recruitment bounds."""
    return _unbounded_lp_value(inst, inst.pref_types)


def q2(inst: ManipulationInstance, slack):
    """LP with recruitment bounds shrunk by the rounding constant."""
    if inst.profile is None:
        raise InvalidInput("q2 needs profile counts")
    return _lp_value(_coalition_lp(inst, inst.pref_types, upper_slack=slack))


def q_program2_from_instance(inst: ManipulationInstance):
    """Value of the stratified LP: recruits only from the runner-up's adjacent strata."""
    if inst.beta != inst.b:
        raise InvalidInput("the stratified program targets the runner-up")
    return _unbounded_lp_value(inst, inst.ba_types)


def q_program2(profile: Profile, rule: ScoreVector):
    return q_program2_from_instance(ManipulationInstance.from_profile(profile, rule))


# --------------------------------------------------------------------- #
# Exhaustive integer search
# --------------------------------------------------------------------- #

def _integer_tables(inst):
    """(scale, leads) of the pure-int search.

    scale is the lcm of the weights' denominators, and leads holds each other
    candidate's lead over the target times scale, in label order: the floors
    of the board's scores times scale.
    """
    if not inst.rule.is_rational:
        raise InvalidInput("the exact search needs a rational rule")
    scale = integer_weights(inst.rule)[0]
    nums, den = inst.board.ints
    base = [num * scale // den for num in nums]
    return scale, [d - base[inst.beta] for c, d in enumerate(base) if c != inst.beta]


class _Budget:
    __slots__ = ("left", "total", "start")

    def __init__(self, n):
        self.left = self.total = n
        self.start = perf_counter()

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise InstanceTooLarge(f"search exceeded the {self.total}-node budget")


def _ballot_search(k, ballots, caps, budget):
    """[(type, count > 0), ...] for k ballots whose loads stay within caps, or None.

    Each take of a row adds one row of loads to the totals, and the first
    take that passes a cap ends the row: larger takes only add more score.
    Take 0 needs no test.  At the first row every cap is >= 0: the recruit
    search calls this only at a leaf whose leads D_c are each at most their
    limit room - k*minload[c], and no load is negative.  A deeper row starts
    from totals that were tested on the way down.
    """
    spend, last = budget.spend, len(ballots) - 1

    def rec(idx, remaining, totals):
        spend()
        t, loads = ballots[idx]
        if idx == last:
            for x, load, cap in zip(totals, loads, caps):
                if x + remaining * load > cap:
                    return None
            return [(t, remaining)] if remaining else []
        rest = rec(idx + 1, remaining, totals)
        if rest is not None:
            return rest
        for take in range(1, remaining + 1):
            totals = [x + load for x, load in zip(totals, loads)]
            for x, cap in zip(totals, caps):
                if x > cap:
                    return None
            rest = rec(idx + 1, remaining - take, totals)
            if rest is not None:
                return [(t, take), *rest]
        return None

    return rec(0, k, [0] * len(caps))


def _suffix_max(values):
    """[max(values[i:]) for every i], in one pass."""
    return [*accumulate(reversed(values), max)][::-1]


def _bound_tables(pool):
    """Per-node bound tables of the recruit search; they depend on the pool, not on k.

    maxg[idx] holds the largest gain over pool[idx:] for each other candidate,
    maxagg[idx] the largest sum of an entry's gains; the entry past the end is
    0 (no recruits left).
    """
    gains = [g for _, _, g in pool]
    maxg = [*zip(*map(_suffix_max, zip(*gains))), (0,) * len(gains[0])]
    return maxg, _suffix_max([*map(sum, gains)]) + [0]


def _search_at_size(k, pool, ballots, leads, scale, budget, strict_win, tables):
    """Find a size-k CoalitionPlan, or None.  pool entries are (type, available count, gains).

    A node (idx, remaining, leads) carries D_c, each other candidate's lead
    over the target; taking a recruit lowers each D_c by its gain.  The node
    is cut when no leaf below it can pass.  With room = scale*k, less 1 for a
    strict win, a leaf needs D_c <= room - k*minload[c] for every c and
    sum_c D_c <= (m-1)*room - k*minagg; the remaining recruits lower D_c by
    at most remaining*maxg[idx][c], and the sum by remaining*maxagg[idx].
    """
    maxg, maxagg, minload, minagg = tables
    room = scale * k - (1 if strict_win else 0)
    limits = [room - k * load for load in minload]
    agg_limit = len(leads) * room - k * minagg
    last = len(pool) - 1
    spend = budget.spend

    def rec(idx, remaining, leads):
        spend()
        for d, g, limit in zip(leads, maxg[idx], limits):
            if d - remaining * g > limit:
                return None
        if sum(leads) - remaining * maxagg[idx] > agg_limit:
            return None
        if idx > last:
            cast = _ballot_search(k, ballots, [room - d for d in leads], budget)
            return None if cast is None else CoalitionPlan(x={}, y=dict(cast))
        t, avail, gains = pool[idx]
        if idx == last:  # the last entry takes all that remains, if it holds that many
            if avail < remaining:
                return None
            take = remaining
            plan = rec(idx + 1, 0, [d - take * g for d, g in zip(leads, gains)])
        else:  # smaller takes first, the leads lowered by one recruit per take
            take, top = 0, min(avail, remaining)
            plan = rec(idx + 1, remaining, leads)
            while plan is None and take < top:
                take += 1
                leads = [d - g for d, g in zip(leads, gains)]
                plan = rec(idx + 1, remaining - take, leads)
        if plan is None or not take:
            return plan
        return CoalitionPlan(x={t: take, **plan.x}, y=plan.y)

    return rec(0, k, leads)


def _search(inst, lower, kmax, budget, strict_win, unrestricted):
    """Smallest feasible size from max(1, ceil(lower)) to kmax with its plan, else None.

    lower is the instance's q3; the caller checks the profile and MAX_EXACT_M.
    """
    if lower is math.inf:
        return None
    scale, leads = _integer_tables(inst)
    classes, ballots, least = _score_classes(inst.rule, inst.a, inst.beta, unrestricted)
    counts = inst.profile.counts
    pool = [(rep, avail, gains) for rep, (_, indices, gains) in classes.items()
            if (avail := sum(map(counts.__getitem__, indices)))]
    if not pool:
        return None
    kmax = min(kmax, sum(avail for _, avail, _ in pool))
    tables = (*_bound_tables(pool), *least)
    start = max(1, math.ceil(lower))
    left = budget.left
    for k in range(start, kmax + 1):
        try:
            plan = _search_at_size(k, pool, ballots, leads, scale, budget, strict_win, tables)
        except InstanceTooLarge as exc:
            raise InstanceTooLarge(
                f"{exc} at target {inst.beta}, coalition size {k} of {start}..{kmax} "
                f"({left} nodes spent on this target, {perf_counter() - budget.start:.1f} s in all)"
            ) from None
        if plan is not None:
            return k, CoalitionPlan(_spread(plan.x, classes, counts), plan.y)
    return None


def _spread(takes, classes, counts):
    """x by type: a class's take goes to its members, last one first, each up to its count."""
    x = {}
    for rep, take in takes.items():
        types, indices, _ = classes[rep]
        for t, i in zip(reversed(types), reversed(indices)):
            part = min(take, counts[i])
            if part:
                x[t] = part
                take -= part
    return x


def q1(inst: ManipulationInstance, *, strict_win=False, unrestricted=False):
    """Exact minimum coalition size for the instance's target, by integer search."""
    if inst.profile is None:
        raise InvalidInput("the exact search needs profile counts")
    if inst.m > MAX_EXACT_M:
        raise InstanceTooLarge(f"exact search is limited to m <= {MAX_EXACT_M}")
    budget = _Budget(NODE_BUDGET)
    found = _search(inst, q3(inst), 10**9, budget, strict_win, unrestricted)
    return found[0] if found else math.inf


@dataclass(frozen=True)
class McsOutcome:
    value: object  # int or math.inf
    target: int | None
    plan: CoalitionPlan | None


def mcs_outcome(profile: Profile, rule: ScoreVector, *, strict_win=False) -> McsOutcome:
    """Minimum over all targets, with the witnessing plan."""
    if profile.m > MAX_EXACT_M:
        raise InstanceTooLarge(f"exact search is limited to m <= {MAX_EXACT_M}")
    board = scoreboard(profile, rule)
    a, b = _strict_top_two(board, "profile")
    budget = _Budget(NODE_BUDGET)
    candidates = []
    for beta in range(profile.m):
        if beta == a:
            continue
        inst = ManipulationInstance._build(rule, board, a, b, beta, profile)
        bound = q3(inst)
        if bound is not math.inf:
            candidates.append((bound, beta, inst))
    candidates.sort(key=lambda item: (item[0], item[1]))
    best = McsOutcome(math.inf, None, None)
    for bound, beta, inst in candidates:
        if best.value is not math.inf and math.ceil(bound) >= best.value:
            continue
        kmax = 10**9 if best.value is math.inf else best.value - 1
        found = _search(inst, bound, kmax, budget, strict_win, False)
        if found is not None:
            best = McsOutcome(found[0], beta, found[1])
    return best


def mcs_exact(profile: Profile, rule: ScoreVector, *, strict_win=False):
    """Size of the smallest coalition that can make anyone else a winner."""
    return mcs_outcome(profile, rule, strict_win=strict_win).value
