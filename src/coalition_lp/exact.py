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
and q_program2 are float solves.

A rational rule answers q3 and q_program2 from certificates where it can,
reading its scores exactly, floats too.  With the winner a relabelled 0, the
target beta 1 and the others 2.. by descending score, every (a, beta) is one
program per rule (_canonical_lp) and only its right-hand side D, the leads
over beta, moves.  An optimal basis B stays optimal wherever B^-1 D >= 0,
since a change of right-hand side keeps it dual feasible (Bertsimas &
Tsitsiklis, Introduction to Linear Optimization, 1997, section 5.1), and a
Farkas ray y proves every D with y . D > 0 unreachable.  A right-hand side
that none of the rule's stored certificates (at most MAX_CERTIFICATES)
answers is solved, and the certificate its final basis (LpOutcome.basis)
gives is checked once, exactly, before it is stored.  An LP's optimal value
is unique, so no value depends on what is stored or on the order of calls.
The program and its certificates are built once per rule object and freed
with it.

The search tries coalition sizes k upward from ceil(q3).  It reads a type
only through its score row, so types with equal rows are interchangeable
(Margot, "Symmetry in integer linear programming", 2010): it recruits from
score classes, one per distinct row with the members' counts summed, and
casts one ballot per distinct row (_score_classes, built once per rule for
each (a, beta) and ballot set).  At each k it walks class multisets depth
first and, at each leaf, looks for k target-first ballots that fit every
candidate's cap.  Every node checks a score bound first: if even the most
helpful recruits still to come, followed by the least loading ballots,
leave some candidate (or all of them together) over their cap, the subtree
is cut.  Only subtrees without a working leaf are cut, so the plan found is
the one the uncut search finds, in far fewer nodes.  The plan is spread back
over types the way a walk type by type, smaller takes first, loads equal
rows: a class's take goes to its members from the last one back, each up to
its count, and a ballot row is cast as the last allowed type holding it.  A
search that still exceeds NODE_BUDGET raises InstanceTooLarge naming the
target, the size, and the nodes and seconds spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from time import perf_counter

from . import lp
from .election import (
    Profile,
    ScoreVector,
    Scoreboard,
    _type_maps,
    per_rule,
    scoreboard,
    top_two,
    type_scores,
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
        return {
            "size": int(size) if size.is_integer() else size,
            "recruits": [
                {"ranking": list(r), "count": c if isinstance(c, int) else float(c)}
                for r, c in sorted(self.x.items())
            ],
            "ballots": [
                {"ranking": list(r), "count": c if isinstance(c, int) else float(c)}
                for r, c in sorted(self.y.items())
            ],
        }


# One m <= 5 pass fits: instances key (a, b, beta) and the per-rule tables (a, beta, beta),
# at most 80 keys at m = 5 and 36 at m = 4.  An m = 8 entry holds ~280 KB, so a caller that
# builds instances for 128 or more (a, b, beta) at m = 8 keeps ~35 MB here.
@lru_cache(maxsize=128)
def _type_sets(m, a, b, beta):
    """pref_types, first_types, strata and ba_types of an instance, in one pass over the types."""
    pref, first, strata = [], [], [[] for _ in range(m - 1)]
    for t, p in _type_maps(m)[1].items():
        if p[beta] < p[a]:
            pref.append(t)
        if p[beta] == 0:
            first.append(t)
        if p[a] == p[b] + 1:
            strata[p[b]].append(t)
    strata = tuple(map(tuple, strata))
    return tuple(pref), tuple(first), strata, sum(strata, ())


@dataclass(frozen=True)
class ManipulationInstance:
    """A profile/scoreboard with designated winner a, runner-up b, target beta.

    pref_types are the types that rank beta above a (the only voters with an
    incentive to join a coalition for beta).  first_types rank beta first.
    strata[i-1] holds the types ranking b in place i and a in place i+1; their
    union is ba_types.  The strata always refer to the runner-up b, whatever
    beta is.
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

    @classmethod
    def _build(cls, rule, scores, a, b, beta, profile):
        if beta == a:
            raise ValueError("the manipulation target must differ from the winner")
        return cls(rule, tuple(scores), a, b, beta, profile, *_type_sets(rule.m, a, b, beta))

    @classmethod
    def from_profile(cls, profile: Profile, rule: ScoreVector, beta: int | None = None):
        board = scoreboard(profile, rule)
        a, b, strict = top_two(board)
        if not strict:
            raise NotStrictWinner("the profile has a tie for first place")
        return cls._build(rule, board.scores, a, b, b if beta is None else beta, profile)

    @classmethod
    def from_scores(cls, rule: ScoreVector, scores, beta: int | None = None):
        """Build from a bare scoreboard; q1/q2 are unavailable without a profile."""
        board = Scoreboard(tuple(scores), 0)
        if len(scores) != rule.m:
            raise ValueError("scores and rule must share m")
        a, b, strict = top_two(board)
        if not strict:
            raise NotStrictWinner("the scoreboard has a tie for first place")
        return cls._build(rule, board.scores, a, b, b if beta is None else beta, None)

    @property
    def m(self) -> int:
        return self.rule.m

    @property
    def mean_score(self):
        return Scoreboard(self.scores, 0).mean

    def count_of(self, ranking) -> int:
        if self.profile is None:
            raise ValueError("this instance has no profile")
        return self.profile.counts[_type_maps(self.m)[0][tuple(ranking)]]


# --------------------------------------------------------------------- #
# Plan verification
# --------------------------------------------------------------------- #

def verify_plan(inst, plan, *, pool, ballots, bounds=False, strata_z=None, tol=0.0):
    """Return a list of constraint violations (empty when the plan is sound).

    pool/ballots delimit the allowed supports of x and y.  With bounds=True
    each x_t is checked against the profile count of t.  strata_z, when
    given, pins the per-stratum sums of x to the target z vector.
    """
    issues = []
    # an exact plan is summed and scored in ints: weights, amounts and scores each over their
    # common denominator
    amounts = (*plan.x.values(), *plan.y.values())
    exact = inst.rule.is_rational and {*map(type, (*amounts, *inst.scores))} <= {int, Fraction}

    def negative(amt):  # below -tol; an exact amount is first tested by the sign of its numerator
        return (not exact or amt.numerator < 0) and amt < -tol

    pool = set(pool)
    ballots = set(ballots)
    for t, amt in plan.x.items():
        if t not in pool:
            issues.append(f"recruit type {t} outside the allowed pool")
        if negative(amt):
            issues.append(f"negative recruitment {amt} for {t}")
        if bounds and amt - inst.count_of(t) > tol:
            issues.append(f"recruited {amt} of type {t}, only {inst.count_of(t)} exist")
    for t, amt in plan.y.items():
        if t not in ballots:
            issues.append(f"ballot type {t} outside the allowed set")
        if negative(amt):
            issues.append(f"negative ballot count {amt} for {t}")
    if exact:
        den = math.lcm(1, *(a.denominator for a in amounts))
        x, y = ({t: a.numerator * (den // a.denominator) for t, a in part.items()}
                for part in (plan.x, plan.y))

        def total(amts):
            return Fraction(sum(amts), den)
    else:
        x, y, total = plan.x, plan.y, sum
    xs = total(x.values())
    ys = total(y.values())
    if abs(xs - ys) > tol:
        issues.append(f"coalition size mismatch: recruits {xs}, ballots {ys}")
    if strata_z is not None:
        for i, stratum in enumerate(inst.strata):
            got = total(x.get(t, 0) for t in stratum)
            if got != strata_z[i] and abs(got - strata_z[i]) > tol:
                issues.append(f"stratum {i + 1} sums to {got}, expected {strata_z[i]}")
    target = inst.beta
    others = [c for c in range(inst.m) if c != target]
    if exact:
        # lhs(alpha) = sum_y amt * (scale - row[alpha]) - sum_x amt * (row[target] - row[alpha])
        scale, rows = type_scores(inst.rule)
        unit = scale * den
        got_x, got_y = _candidate_totals(x, rows, inst.m), _candidate_totals(y, rows, inst.m)
        base = scale * sum(y.values()) - got_x[target]
        sden = math.lcm(*(s.denominator for s in inst.scores))
        lead = [s.numerator * (sden // s.denominator) * unit for s in inst.scores]
        for alpha in others:
            lhs = base - got_y[alpha] + got_x[alpha]
            short = lhs * sden - (lead[alpha] - lead[target])  # (lhs - rhs * unit) * sden
            if short < 0 and (not tol or Fraction(short, sden) < -tol * unit):
                rhs = inst.scores[alpha] - inst.scores[target]
                issues.append(f"candidate {alpha} stays ahead: {Fraction(lhs, unit)} < {rhs}")
        return issues
    places = _type_maps(inst.m)[1]
    weights = inst.rule.weights
    for alpha in others:
        lhs = sum(amt * (1 - weights[places[t][alpha]]) for t, amt in y.items())
        lhs -= sum(amt * (weights[places[t][target]] - weights[places[t][alpha]])
                   for t, amt in x.items())
        rhs = inst.scores[alpha] - inst.scores[target]
        # compare the difference so exact inputs are never coerced to float
        if lhs - rhs < -tol:
            issues.append(f"candidate {alpha} stays ahead: {lhs} < {rhs}")
    return issues


def _candidate_totals(amounts, rows, m):
    """sum_t amounts[t] * rows[t][c] for every candidate c."""
    totals = [0] * m
    for t, amt in amounts.items():
        for c, s in enumerate(rows[t]):
            totals[c] += amt * s
    return totals


def verify_integral_plan(inst, plan, tol=0.0):
    """Soundness check for a program-(1)-style plan against the instance's profile."""
    return verify_plan(
        inst, plan, pool=inst.pref_types, ballots=inst.first_types, bounds=True, tol=tol
    )


def verify_stratified_plan(inst, plan, z=None, tol=0.0):
    """Soundness check for a program-(2)-style plan (target must be the runner-up)."""
    if inst.beta != inst.b:
        raise ValueError("stratified plans target the runner-up")
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
    """(classes, ballots): the exact search's recruits and ballots for (a, beta), one per score row.

    The search reads a type only through its score row, so types with equal
    rows are interchangeable.  classes maps the first type of each distinct
    row among those ranking beta above a to (types, indices): every type
    with that row and its index, in all_rankings order; classes go in the
    order of their first types.
    ballots holds, of each distinct row among the types ranking beta first
    (every type when unrestricted), the last type holding it, in that order.
    """
    ranks = _type_maps(rule.m)[0]
    rows = type_scores(rule)[1]
    pref, first, _, _ = _type_sets(rule.m, a, beta, beta)
    members = {}
    for t in pref:
        members.setdefault(rows[t], []).append(t)
    classes = {types[0]: (tuple(types), tuple(map(ranks.get, types))) for types in members.values()}
    last = {rows[t]: t for t in (ranks if unrestricted else first)}
    return classes, tuple(sorted(last.values(), key=ranks.get))


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
    scale, rows = type_scores(rule)
    _, first, _, below = _type_sets(rule.m, 0, 1, 1)
    others = [alpha for alpha in range(rule.m) if alpha != 1]
    recruits = dict.fromkeys(tuple(row[alpha] - row[1] for alpha in others)
                             for row in map(rows.get, below))
    ballots = dict.fromkeys(tuple(scale - row[alpha] for alpha in others)
                            for row in map(rows.get, first))
    columns = [(*column, -1) for column in recruits] + [(*column, 1) for column in ballots]
    cost = (1,) * len(recruits) + (0,) * len(ballots)
    return cost, tuple(zip(*columns)), []


def _certified_value(inst):
    """The unbounded LP value of an exact instance, from a certificate or by a solve that adds one.

    The others are relabelled 2.. by descending score, ties by label, so that
    like scoreboards give like right-hand sides.  D is kept as ints d over
    the scores' common denominator; a float score is read exactly.
    """
    a, beta = inst.a, inst.beta
    ratios = [s.as_integer_ratio() for s in inst.scores]
    den = math.lcm(*(d for _, d in ratios))
    lead = [n * (den // d) for n, d in ratios]
    order = sorted(range(inst.m), key=lambda c: (-lead[c], c))
    d = [lead[c] - lead[beta] for c in (a, *(c for c in order if c != a and c != beta))]
    cost, rows, certificates = _canonical_lp(inst.rule)
    for certificate in certificates:
        value = _answer(certificate, d, den)
        if value is not None:
            return value
    scale = type_scores(inst.rule)[0]
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
        raise ValueError("q2 needs profile counts")
    return _lp_value(_coalition_lp(inst, inst.pref_types, upper_slack=slack))


def q_program2_from_instance(inst: ManipulationInstance):
    """Value of the stratified LP: recruits only from the runner-up's adjacent strata."""
    if inst.beta != inst.b:
        raise ValueError("the stratified program targets the runner-up")
    return _unbounded_lp_value(inst, inst.ba_types)


def q_program2(profile: Profile, rule: ScoreVector):
    return q_program2_from_instance(ManipulationInstance.from_profile(profile, rule))


# --------------------------------------------------------------------- #
# Exhaustive integer search
# --------------------------------------------------------------------- #

def _integer_tables(inst):
    """Scale every score by the lcm of weight denominators so the search is pure int."""
    if not inst.rule.is_rational:
        raise ValueError("the exact search needs a rational rule")
    scale, sig = type_scores(inst.rule)
    base = [s.numerator * scale // s.denominator for s in inst.scores]
    return scale, sig, base


class _Budget:
    __slots__ = ("left", "total", "start")

    def __init__(self, n):
        self.left = self.total = n
        self.start = perf_counter()

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise InstanceTooLarge(f"search exceeded the {self.total}-node budget")


def _ballot_search(k, ballots, sig, caps, target, m, budget):
    """[(type, count > 0), ...] for k ballots that keep every candidate within caps, or None."""

    def rec(idx, remaining, totals):
        budget.spend()
        t = ballots[idx]
        row = sig[t]
        if idx == len(ballots) - 1:
            for c in range(m):
                if c != target and totals[c] + remaining * row[c] > caps[c]:
                    return None
            return [(t, remaining)] if remaining else []
        for take in range(remaining + 1):
            new = list(totals)
            ok = True
            for c in range(m):
                if c == target:
                    continue
                new[c] = totals[c] + take * row[c]
                if new[c] > caps[c]:
                    ok = False
                    break
            if not ok:
                break  # larger takes only add more score
            rest = rec(idx + 1, remaining - take, new)
            if rest is not None:
                return ([(t, take)] + rest) if take else rest
        return None

    return rec(0, k, [0] * m)


def _suffix_max(values):
    """[max(values[i:]) for every i], in one pass."""
    return [*accumulate(reversed(values), max)][::-1]


def _bound_tables(pool, ballots, sig, target, m):
    """Per-node bound tables of the recruit search; they depend on the target, not on k.

    gain g_t(c) = sig[t][c] - sig[t][target] is how far recruiting one voter
    of type t narrows c's lead over the target.  maxg[idx] holds max_t g_t(c)
    over pool[idx:] for each other candidate c, maxagg[idx] the max of
    sum_c g_t(c); the entry past the end is 0 (no recruits left).  From the
    ballots: minload, the least score any ballot gives each c, and minagg,
    the least total any ballot gives the other candidates.
    """
    others = tuple(c for c in range(m) if c != target)
    pool_cols = [*zip(*(sig[t] for t, _ in pool))]  # pool_cols[c][j]: c's score on pool[j]
    gains = [[x - y for x, y in zip(pool_cols[c], pool_cols[target])] for c in others]
    maxg = [*zip(*map(_suffix_max, gains)), (0,) * len(others)]
    maxagg = _suffix_max([sum(g) for g in zip(*gains)]) + [0]
    ballot_cols = [*zip(*(sig[t] for t in ballots))]
    minload = [min(ballot_cols[c]) for c in others]
    minagg = min(sum(sig[t]) - sig[t][target] for t in ballots)
    return others, maxg, maxagg, minload, minagg


def _search_at_size(k, inst, pool, ballots, sig, base, scale, budget, strict_win, tables):
    """Find a size-k CoalitionPlan, or None.  pool entries are (type, available count).

    A node (idx, remaining, removed) is cut when no leaf below it can pass.
    With D_c the lead of c over the target and room = scale*k, less 1 for a
    strict win, a leaf needs D_c <= room - k*minload[c] for every c and
    sum_c D_c <= (m-1)*room - k*minagg; the remaining recruits lower D_c by
    at most remaining*maxg[idx][c], and the sum by remaining*maxagg[idx].
    """
    m = inst.m
    target = inst.beta
    others, maxg, maxagg, minload, minagg = tables
    room = scale * k - (1 if strict_win else 0)
    limits = [room - k * load for load in minload]
    agg_limit = (m - 1) * room - k * minagg

    def rec(idx, remaining, removed):
        budget.spend()
        if idx == len(pool) and remaining:
            return None
        lead = base[target] - removed[target]
        leads = [base[c] - removed[c] - lead for c in others]
        for d, g, limit in zip(leads, maxg[idx], limits):
            if d - remaining * g > limit:
                return None
        if sum(leads) - remaining * maxagg[idx] > agg_limit:
            return None
        if idx == len(pool):
            caps = [0] * m
            for c, d in zip(others, leads):
                caps[c] = room - d
            cast = _ballot_search(k, ballots, sig, caps, target, m, budget)
            return None if cast is None else CoalitionPlan(x={}, y=dict(cast))
        t, avail = pool[idx]
        row = sig[t]
        top = min(avail, remaining)
        for take in range(top + 1):
            if idx == len(pool) - 1 and take != remaining:
                continue
            new_removed = [removed[c] + take * row[c] for c in range(m)]
            plan = rec(idx + 1, remaining - take, new_removed)
            if plan is not None:
                return CoalitionPlan(x={t: take, **plan.x}, y=plan.y) if take else plan
        return None

    return rec(0, k, [0] * m)


def _search(inst, lower, kmax, budget, strict_win, unrestricted):
    """Smallest feasible size from max(1, ceil(lower)) to kmax with its plan, else None.

    lower is the instance's q3; the caller checks the profile and MAX_EXACT_M.
    """
    if lower is math.inf:
        return None
    scale, sig, base = _integer_tables(inst)
    classes, ballots = _score_classes(inst.rule, inst.a, inst.beta, unrestricted)
    counts = inst.profile.counts
    pool = [(rep, avail) for rep, (_, indices) in classes.items()
            if (avail := sum(map(counts.__getitem__, indices)))]
    if not pool:
        return None
    capacity = sum(c for _, c in pool)
    kmax = min(kmax, capacity)
    tables = _bound_tables(pool, ballots, sig, inst.beta, inst.m)
    start = max(1, math.ceil(lower))
    left = budget.left
    for k in range(start, kmax + 1):
        try:
            plan = _search_at_size(
                k, inst, pool, ballots, sig, base, scale, budget, strict_win, tables
            )
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
        types, indices = classes[rep]
        for t, i in zip(reversed(types), reversed(indices)):
            part = min(take, counts[i])
            if part:
                x[t] = part
                take -= part
    return x


def q1(inst: ManipulationInstance, *, strict_win=False, unrestricted=False):
    """Exact minimum coalition size for the instance's target, by integer search."""
    if inst.profile is None:
        raise ValueError("the exact search needs profile counts")
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
    a, b, strict = top_two(board)
    if not strict:
        raise NotStrictWinner("the profile has a tie for first place")
    budget = _Budget(NODE_BUDGET)
    candidates = []
    for beta in range(profile.m):
        if beta == a:
            continue
        inst = ManipulationInstance._build(rule, board.scores, a, b, beta, profile)
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
