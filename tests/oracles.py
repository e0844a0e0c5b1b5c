"""Independent oracles the tests compare the library against.

Nothing here imports the solver or search code under test.  The LP oracle
enumerates basic points directly and the brute coalition oracle tries every
recruit/ballot multiset; both are exponential and only meant for tiny
inputs.  The polytope oracle intersects the dual's half-planes pairwise in
Fractions, and the score-row oracle reads every type's scores from sigma.
The milp coalition oracle hands program (1) to scipy's HiGHS branch and
bound, for profiles too big to brute-force.  The first-plan oracle walks
score classes in the exact search's order with no bounds, for the plan the
search must return.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from coalition_lp.election import all_rankings, scoreboard, sigma, top_two


def _basic_points(cons, n):
    """All feasible intersections of n constraint hyperplanes."""
    pts = []
    for subset in itertools.combinations(range(len(cons)), n):
        a = np.array([cons[i][0] for i in subset], dtype=float)
        b = np.array([cons[i][2] for i in subset], dtype=float)
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, b)
        if _feasible(x, cons):
            pts.append(x)
    return pts


def _feasible(x, cons, tol=1e-7):
    for coeffs, rel, rhs in cons:
        lhs = float(np.dot(coeffs, x))
        if rel == "<=" and lhs > rhs + tol:
            return False
        if rel == ">=" and lhs < rhs - tol:
            return False
        if rel == "=" and abs(lhs - rhs) > tol:
            return False
    return True


def enumerate_lp(objective, sense, rows):
    """Solve a small LP with implicit x >= 0 by full vertex enumeration.

    Returns (status string, optimal value or None); status is one of
    "optimal", "infeasible", "unbounded".
    """
    n = len(objective)
    cons = [(list(c), rel, float(rhs)) for c, rel, rhs in rows]
    for j in range(n):
        unit = [0.0] * n
        unit[j] = 1.0
        cons.append((unit, ">=", 0.0))
    pts = _basic_points(cons, n)
    if not pts:
        return "infeasible", None
    # Recession directions live on the slice sum(d) = 1 of the homogeneous cone.
    hom = [(c, rel, 0.0) for c, rel, _ in cons]
    hom.append(([1.0] * n, "=", 1.0))
    sign = -1.0 if sense == "min" else 1.0
    for d in _basic_points(hom, n):
        if sign * float(np.dot(objective, d)) > 1e-9:
            return "unbounded", None
    vals = [float(np.dot(objective, p)) for p in pts]
    return "optimal", (min(vals) if sense == "min" else max(vals))


def brute_mcs(profile, rule, *, strict_win=False, restricted=True, guided=True, kmax=None):
    """Smallest working coalition by trying every recruit/ballot multiset.

    Returns (size, target) or (math.inf, None) when no coalition up to kmax
    succeeds.  `restricted` limits recruits to voters ranking the target
    above the current winner, matching the library's default pool; with
    `guided` off the cast ballots range over every type instead of only
    target-first ones.
    """
    board = scoreboard(profile, rule)
    a, _, strict = top_two(board)
    if not strict:
        raise ValueError("tie for first place")
    rankings = all_rankings(profile.m)
    counts = dict(profile.items())
    if kmax is None:
        kmax = profile.n
    for k in range(0, kmax + 1):
        for beta in range(profile.m):
            if beta == a:
                continue
            if restricted:
                pool = [r for r in counts if r.index(beta) < r.index(a)]
            else:
                pool = list(counts)
            if _works_at(k, beta, a, pool, counts, rankings, profile, rule, strict_win, guided):
                return k, beta
    return math.inf, None


def _works_at(k, beta, a, pool, counts, rankings, profile, rule, strict_win, guided):
    ballots = [r for r in rankings if r[0] == beta] if guided else list(rankings)
    for recruits in itertools.combinations_with_replacement(pool, k):
        over = any(recruits.count(r) > counts[r] for r in set(recruits))
        if over:
            continue
        for cast in itertools.combinations_with_replacement(ballots, k):
            scores = list(scoreboard(profile, rule).scores)
            for r in recruits:
                for pos, cand in enumerate(r):
                    scores[cand] -= rule.weights[pos]
            for r in cast:
                for pos, cand in enumerate(r):
                    scores[cand] += rule.weights[pos]
            others = [scores[c] for c in range(profile.m) if c != beta]
            if strict_win:
                good = all(scores[beta] > v for v in others)
            else:
                good = all(scores[beta] >= v for v in others)
            if good:
                return True
    return False


def milp_mcs(profile, rule, strict_win=False, *, target=None, unrestricted=False):
    """Optimum of program (1) by scipy's milp: the smallest coalition over all targets.

    With `target` only that candidate is tried.  Recruits come from the
    voters ranking the target above the winner, at most as many of a type
    as the profile holds; cast ballots put the target first, or range over
    every type with `unrestricted`.  Scores are scaled to integers by the
    lcm of the weight denominators, so a strict win is a margin of 1.
    Returns math.inf when no coalition works.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    board = scoreboard(profile, rule)
    a, _, strict = top_two(board)
    if not strict:
        raise ValueError("tie for first place")
    weights = [Fraction(w) for w in rule.weights]
    scale = math.lcm(*(w.denominator for w in weights))
    points = [int(w * scale) for w in weights]
    scores = [Fraction(s) * scale for s in board.scores]
    counts = dict(profile.items())
    rankings = all_rankings(profile.m)

    def score(ranking, cand):
        return points[ranking.index(cand)]

    best = math.inf
    for beta in range(profile.m) if target is None else (target,):
        if beta == a:
            continue
        pool = [r for r in counts if r.index(beta) < r.index(a)]
        ballots = list(rankings) if unrestricted else [r for r in rankings if r[0] == beta]
        rows, lower = [], []
        for alpha in range(profile.m):
            if alpha == beta:
                continue
            rows.append([score(r, alpha) - score(r, beta) for r in pool]
                        + [score(r, beta) - score(r, alpha) for r in ballots])
            lower.append(float(scores[alpha] - scores[beta]) + (1 if strict_win else 0))
        rows.append([1] * len(pool) + [-1] * len(ballots))
        lower.append(0)
        upper = [np.inf] * (len(rows) - 1) + [0]
        n_vars = len(pool) + len(ballots)
        res = milp(
            c=np.array([1.0] * len(pool) + [0.0] * len(ballots)),
            constraints=LinearConstraint(np.array(rows, dtype=float), lower, upper),
            integrality=np.ones(n_vars),
            bounds=Bounds(np.zeros(n_vars), [counts[r] for r in pool] + [np.inf] * len(ballots)),
        )
        if res.status == 0:
            best = min(best, round(res.fun))
        elif res.status != 2:  # 2: infeasible
            raise RuntimeError(f"milp failed on target {beta}: {res.message}")
    return best


def polytope_vertices(rule):
    """Vertices of M_w for a rational rule, counterclockwise from the least (lam, mu).

    M_w is cut by w[i]*lam + (1 - w[i-1])*mu <= 1 (i = 1..m-1), -lam <= 0 and
    lam - mu <= 0.  Every feasible point where two non-parallel boundary
    lines cross is a basic feasible point of that system, hence a vertex, and
    every vertex is one; they are ordered by angle around their centroid.
    """
    w = [Fraction(x) for x in rule.weights]
    halfplanes = [(w[i], 1 - w[i - 1], Fraction(1)) for i in range(1, len(w))]
    halfplanes += [(Fraction(-1), Fraction(0), Fraction(0)), (Fraction(1), Fraction(-1), Fraction(0))]
    points = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(halfplanes, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        pt = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
        if all(a * pt[0] + b * pt[1] <= c for a, b, c in halfplanes):
            points.add(pt)
    if len(points) <= 2:
        return tuple(sorted(points))
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def before(p, q):
        # angle of p - centroid against q - centroid, both in [0, 2*pi)
        dp, dq = (p[0] - cx, p[1] - cy), (q[0] - cx, q[1] - cy)
        hp, hq = (dp[1] < 0 or (dp[1] == 0 and dp[0] < 0)), (dq[1] < 0 or (dq[1] == 0 and dq[0] < 0))
        if hp != hq:
            return -1 if hq else 1
        cross = dp[0] * dq[1] - dp[1] * dq[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    ring = sorted(points, key=functools.cmp_to_key(before))
    start = ring.index(min(points))
    return tuple(ring[start:] + ring[:start])


def type_rows(rule):
    """(scale, rows): rows[t][c] / scale == sigma(t, c, rule) for every type t, in ints.

    scale is the lcm of the weights' denominators, floats read exactly.
    """
    scale = math.lcm(*(Fraction(w).denominator for w in rule.weights))
    as_int = {w: int(Fraction(w) * scale) for w in rule.weights}
    return scale, {t: tuple(as_int[sigma(t, c, rule)] for c in range(rule.m))
                   for t in all_rankings(rule.m)}


def _compositions(k, caps):
    """Every tuple of len(caps) non-negative ints summing to k, each within its cap, ascending."""
    if len(caps) == 1:
        if k <= caps[0]:
            yield (k,)
        return
    for first in range(min(k, caps[0]) + 1):
        for rest in _compositions(k - first, caps[1:]):
            yield (first, *rest)


def first_plan(profile, rule, beta, *, strict_win=False):
    """The first working plan of a class walk for `beta`: (size, recruits, ballots), or None.

    Types with equal score rows form a class; the recruit classes are those
    of the types ranking beta above the winner, in the order of their first
    types, and only classes with voters are walked.  The ballot rows are the
    distinct rows of the types ranking beta first, each cast as the last type
    holding it, in ranking order.  Sizes go up from 1.  At each size the walk
    has no bounds: it tries the recruit takes in lexicographic order,
    smallest first, and for each the ballot counts in the same order, and
    returns the first pair under which beta's final score beats (weakly, or
    strictly with `strict_win`) every other candidate's.  A class's take goes
    to its members from the last one back, each up to its count.
    """
    a = top_two(scoreboard(profile, rule))[0]
    scale, rows = type_rows(rule)
    scores = [Fraction(s) * scale for s in scoreboard(profile, rule).scores]
    counts = dict(profile.items())
    rankings = all_rankings(profile.m)
    members = {}
    for t in rankings:
        if t.index(beta) < t.index(a):
            members.setdefault(rows[t], []).append(t)
    pool = [types for types in members.values() if sum(counts.get(t, 0) for t in types)]
    avail = [sum(counts.get(t, 0) for t in types) for types in pool]
    last = {rows[t]: t for t in rankings if t[0] == beta}
    ballots = sorted(last.values(), key=rankings.index)

    def wins(takes, cast):
        final = list(scores)
        for types, take in zip(pool, takes):
            for c in range(profile.m):
                final[c] -= take * rows[types[0]][c]
        for t, count in zip(ballots, cast):
            for c in range(profile.m):
                final[c] += count * rows[t][c]
        return all(final[beta] > final[c] if strict_win else final[beta] >= final[c]
                   for c in range(profile.m) if c != beta)

    for k in range(1, sum(avail) + 1):
        for takes in _compositions(k, avail):
            cast = next((cast for cast in _compositions(k, [k] * len(ballots))
                         if wins(takes, cast)), None)
            if cast is None:
                continue
            recruits = {}
            for types, take in zip(pool, takes):
                for t in reversed(types):
                    part = min(take, counts.get(t, 0))
                    if part:
                        recruits[t] = part
                        take -= part
            return k, recruits, {t: count for t, count in zip(ballots, cast) if count}
    return None
