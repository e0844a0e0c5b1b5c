"""Exact minimum-coalition computations on concrete profiles.

The core object is a manipulation instance: a profile (or bare scoreboard),
a rule, the strict winner a, the runner-up b, and a manipulation target
beta.  A coalition plan pairs recruited sincere types x with cast insincere
ballots y; it succeeds when beta's final score weakly beats every other
candidate's.

Three routes to a value live here:

* q1 / mcs_exact: exhaustive integer search (the ground truth, m <= 4);
* q2 / q3: the LP relaxations with shrunk or dropped recruitment bounds;
* q_program2: the LP over the adjacent strata of the runner-up only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .election import (
    Profile,
    ScoreVector,
    Scoreboard,
    all_rankings,
    scoreboard,
    sigma,
    top_two,
    _is_exact,
)


class NotStrictWinner(Exception):
    pass


class InstanceTooLarge(Exception):
    pass


MAX_EXACT_M = 4
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
        m = rule.m
        types = all_rankings(m)
        pref = tuple(t for t in types if t.index(beta) < t.index(a))
        first = tuple(t for t in types if t[0] == beta)
        strata = tuple(
            tuple(t for t in types if t.index(b) == i and t.index(a) == i + 1)
            for i in range(m - 1)
        )
        ba = tuple(t for stratum in strata for t in stratum)
        return cls(rule, tuple(scores), a, b, beta, profile, pref, first, strata, ba)

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
        if all(_is_exact(s) for s in self.scores):
            return Fraction(sum(self.scores), self.m)
        return sum(self.scores) / self.m

    def count_of(self, ranking) -> int:
        from .election import ranking_index

        if self.profile is None:
            raise ValueError("this instance has no profile")
        return self.profile.counts[ranking_index(ranking, self.m)]


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
    pool = set(pool)
    ballots = set(ballots)
    for t, amt in plan.x.items():
        if t not in pool:
            issues.append(f"recruit type {t} outside the allowed pool")
        if amt < -tol:
            issues.append(f"negative recruitment {amt} for {t}")
        if bounds and amt - inst.count_of(t) > tol:
            issues.append(f"recruited {amt} of type {t}, only {inst.count_of(t)} exist")
    for t, amt in plan.y.items():
        if t not in ballots:
            issues.append(f"ballot type {t} outside the allowed set")
        if amt < -tol:
            issues.append(f"negative ballot count {amt} for {t}")
    xs = sum(plan.x.values())
    ys = sum(plan.y.values())
    if abs(xs - ys) > tol:
        issues.append(f"coalition size mismatch: recruits {xs}, ballots {ys}")
    if strata_z is not None:
        for i, stratum in enumerate(inst.strata):
            got = sum(plan.x.get(t, 0) for t in stratum)
            if abs(got - strata_z[i]) > tol:
                issues.append(f"stratum {i + 1} sums to {got}, expected {strata_z[i]}")
    w = inst.rule
    target = inst.beta
    for alpha in range(inst.m):
        if alpha == target:
            continue
        lhs = sum(amt * (1 - sigma(t, alpha, w)) for t, amt in plan.y.items())
        lhs -= sum(
            amt * (sigma(t, target, w) - sigma(t, alpha, w)) for t, amt in plan.x.items()
        )
        rhs = inst.scores[alpha] - inst.scores[target]
        # compare the difference so exact inputs are never coerced to float
        if lhs - rhs < -tol:
            issues.append(f"candidate {alpha} stays ahead: {lhs} < {rhs}")
    return issues


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
    w = inst.rule
    ys = inst.first_types
    nx, ny = len(xs), len(ys)
    rows = []
    for alpha in range(inst.m):
        if alpha == inst.beta:
            continue
        coeffs = [-(sigma(t, inst.beta, w) - sigma(t, alpha, w)) for t in xs]
        coeffs += [1 - sigma(t, alpha, w) for t in ys]
        rows.append((tuple(coeffs), ">=", inst.scores[alpha] - inst.scores[inst.beta]))
    rows.append((tuple([-1] * nx + [1] * ny), "=", 0))
    if upper_slack is not None:
        for j, t in enumerate(xs):
            coeffs = [0] * (nx + ny)
            coeffs[j] = 1
            rows.append((tuple(coeffs), "<=", inst.count_of(t) - upper_slack))
    return lp.LinearProgram(tuple([1] * nx + [0] * ny), "min", tuple(rows))


def _lp_value(program: lp.LinearProgram):
    out = lp.solve(program)
    if out.status is lp.LpStatus.INFEASIBLE:
        return math.inf
    if out.status is lp.LpStatus.UNBOUNDED:
        raise lp.NumericalFailure("a minimization with non-negative objective cannot be unbounded")
    return out.value


def q3(inst: ManipulationInstance):
    """LP lower bound for q1: no integrality, no recruitment bounds."""
    return _lp_value(_coalition_lp(inst, inst.pref_types))


def q2(inst: ManipulationInstance, slack):
    """LP with recruitment bounds shrunk by the rounding constant."""
    if inst.profile is None:
        raise ValueError("q2 needs profile counts")
    return _lp_value(_coalition_lp(inst, inst.pref_types, upper_slack=slack))


def q_program2_from_instance(inst: ManipulationInstance):
    """Value of the stratified LP: recruits only from the runner-up's adjacent strata."""
    if inst.beta != inst.b:
        raise ValueError("the stratified program targets the runner-up")
    return _lp_value(_coalition_lp(inst, inst.ba_types))


def q_program2(profile: Profile, rule: ScoreVector):
    return q_program2_from_instance(ManipulationInstance.from_profile(profile, rule))


# --------------------------------------------------------------------- #
# Exhaustive integer search
# --------------------------------------------------------------------- #

def _integer_tables(inst):
    """Scale every score by the lcm of weight denominators so the search is pure int."""
    w = inst.rule
    if not w.is_rational:
        raise ValueError("the exact search needs a rational rule")
    scale = math.lcm(*(Fraction(x).denominator for x in w.weights))
    weights = [int(Fraction(x) * scale) for x in w.weights]
    types = all_rankings(inst.m)
    sig = {}
    for t in types:
        row = [0] * inst.m
        for pos, cand in enumerate(t):
            row[cand] = weights[pos]
        sig[t] = tuple(row)
    base = [int(Fraction(s) * scale) for s in inst.scores]
    return scale, sig, base


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise InstanceTooLarge(f"search exceeded the {NODE_BUDGET}-node budget")


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


def _search_at_size(k, inst, pool, ballots, sig, base, scale, budget, strict_win):
    """Find a size-k CoalitionPlan, or None.  pool entries are (type, available count)."""
    m = inst.m
    target = inst.beta
    tie_bump = 1 if strict_win else 0

    def rec(idx, remaining, removed):
        budget.spend()
        if idx == len(pool):
            if remaining:
                return None
            post = [base[c] - removed[c] for c in range(m)]
            target_score = post[target] + scale * k
            caps = [0] * m
            for c in range(m):
                if c == target:
                    continue
                cap = target_score - post[c] - tie_bump
                if cap < 0:
                    return None
                caps[c] = cap
            # quick necessary test before enumerating ballots
            for c in range(m):
                if c != target and k * min(sig[t][c] for t in ballots) > caps[c]:
                    return None
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


def _search(inst, kmax, budget, strict_win, unrestricted):
    """Smallest feasible coalition size in [1, kmax] with its plan, else None."""
    if inst.profile is None:
        raise ValueError("the exact search needs profile counts")
    if inst.m > MAX_EXACT_M:
        raise InstanceTooLarge(f"exact search is limited to m <= {MAX_EXACT_M}")
    scale, sig, base = _integer_tables(inst)
    pool = [(t, inst.count_of(t)) for t in inst.pref_types if inst.count_of(t) > 0]
    if not pool:
        return None
    capacity = sum(c for _, c in pool)
    kmax = min(kmax, capacity)
    ballots = all_rankings(inst.m) if unrestricted else inst.first_types
    lower = q3(inst)
    if lower is math.inf:
        return None
    start = max(1, math.ceil(lower))
    for k in range(start, kmax + 1):
        plan = _search_at_size(k, inst, pool, ballots, sig, base, scale, budget, strict_win)
        if plan is not None:
            return k, plan
    return None


def q1(inst: ManipulationInstance, *, strict_win=False, unrestricted=False):
    """Exact minimum coalition size for the instance's target, by integer search."""
    budget = _Budget(NODE_BUDGET)
    found = _search(inst, 10**9, budget, strict_win, unrestricted)
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
        inst = ManipulationInstance.from_profile(profile, rule, beta)
        bound = q3(inst)
        if bound is not math.inf:
            candidates.append((bound, beta, inst))
    candidates.sort(key=lambda item: (item[0], item[1]))
    best = McsOutcome(math.inf, None, None)
    for bound, beta, inst in candidates:
        if best.value is not math.inf and math.ceil(bound) >= best.value:
            continue
        kmax = 10**9 if best.value is math.inf else best.value - 1
        found = _search(inst, kmax, budget, strict_win, False)
        if found is not None:
            best = McsOutcome(found[0], beta, found[1])
    return best


def mcs_exact(profile: Profile, rule: ScoreVector, *, strict_win=False):
    """Size of the smallest coalition that can make anyone else a winner."""
    return mcs_outcome(profile, rule, strict_win=strict_win).value
