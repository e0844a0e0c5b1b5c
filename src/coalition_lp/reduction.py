"""The two-variable reduction of the coalition LPs.

For a normalized rule w the feasible region of the dual program is the
planar set

    M_w = { (lam, mu) : 0 <= lam <= mu,
            w[i+1]*lam + (1 - w[i])*mu <= 1  for i = 1..m-1 }

and the continuous coalition problem for the runner-up evaluates to

    max over M_w of  lam * (|a| - n*wbar) + mu * (n*wbar - |b|)

which is +inf exactly when a recession ray of M_w has positive objective
(only the anti-plurality shape has one).  q_stratified solves the same
value as a primal LP over per-stratum recruitment totals z, and
witness_from_z turns any feasible z into an explicit fractional coalition
plan for the stratified program.

The geometry and the witness are computed on Python ints for every rule,
floats read exactly (lp.lcd_ints): M_w's rows scaled by the weights' common
denominator, and every scalar of the witness (z, the scores, A, B, r, u, v
and the per-type amounts) as a numerator over a known denominator; the
scores are the instance's board's ints (Scoreboard.ints).
Fractions are built only for the vertices and plan entries returned; a
witness with a float input rounds each amount once, to a float.  M_w and
its cone-optimal vertices depend on the rule alone: they are built once per
rule object and freed with it.  Margins and p are read exactly too, with no
tie tolerance, by scoreboard_valid, optimal_vertex_set and closed_form_q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import lp
from .election import (
    InvalidInput, ScoreVector, Scoreboard, _is_exact, integer_weights, per_rule, top_two,
)
from .exact import CoalitionPlan, ManipulationInstance, _solved, verify_stratified_plan


class UnknownFamily(InvalidInput):
    pass


class ParamOutOfRange(InvalidInput):
    pass


class ZInfeasible(Exception):
    pass


class ConstructionFailed(Exception):
    pass


# --------------------------------------------------------------------- #
# Margins
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class MarginPair:
    """The winner's lead over the mean score and the mean's lead over the runner-up."""

    a_margin: object
    b_deficit: object

    @classmethod
    def from_scoreboard(cls, board: Scoreboard) -> "MarginPair":
        a, b, _ = top_two(board)
        mean = board.mean
        return cls(board.scores[a] - mean, mean - board.scores[b])

    @property
    def gap(self):
        """The score gap |a| - |b| between winner and runner-up."""
        return self.a_margin + self.b_deficit

    def scoreboard_valid(self, m: int) -> bool:
        """Whether some m-candidate scoreboard realizes these margins, read exactly."""
        a, b = Fraction(self.a_margin), Fraction(self.b_deficit)
        return a >= 0 and -a <= b <= a / (m - 1)


# --------------------------------------------------------------------- #
# The dual polytope
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Polytope2D:
    """Vertices (counterclockwise), recession rays, and the defining rows c.x <= rhs."""

    m: int
    vertices: tuple
    rays: tuple
    rows: tuple

    @cached_property  # kept in the instance's __dict__, so a cached polytope computes it once
    def cone_optimal(self) -> tuple:
        return _cone_optimal_vertices(self)

    def to_json(self, rule_label: str, exact: bool = False, extra: dict | None = None) -> str:
        def coord(v):
            return str(Fraction(v)) if exact else float(v)

        payload = {
            "rule": rule_label,
            "m": self.m,
            "vertices": [[coord(x), coord(y)] for x, y in self.vertices],
            "rays": [[coord(x), coord(y)] for x, y in self.rays],
        }
        if extra:
            payload.update(extra)
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> tuple[str, "Polytope2D"]:
        data = json.loads(text)
        for key in ("rule", "m", "vertices", "rays"):
            if key not in data:
                raise InvalidInput(f"polytope JSON lacks {key!r}")

        def parse(v):
            return Fraction(v) if isinstance(v, str) else float(v)

        vertices = tuple((parse(x), parse(y)) for x, y in data["vertices"])
        rays = tuple((parse(x), parse(y)) for x, y in data["rays"])
        return data["rule"], cls(data["m"], vertices, rays, ())


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _hull_ccw(points):
    """Andrew's monotone chain; exact when the coordinates are Fractions."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


@per_rule
def mw_polytope(rule: ScoreVector) -> Polytope2D:
    """The feasible region of the two-variable dual program for the rule.

    Its rows, scaled by integer_weights to (W[i], S - W[i-1], S), meet by
    Cramer's rule in ints, so a rule given as floats gets the exact region of
    its weights.  Vertices, rays and rows are Fractions.  The region depends
    on the rule alone and is built once per rule object: every call with the
    same rule object returns the same polytope.
    """
    m = rule.m
    scale, ints = integer_weights(rule)
    # w[i] is w_{i+1}, w[i-1] is w_i in 1-based terms; then 0 <= lam and lam <= mu
    lines = [(ints[i], scale - ints[i - 1], scale) for i in range(1, m)] + [(-1, 0, 0), (1, -1, 0)]
    points = set()
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            xn = c1 * b2 - c2 * b1
            yn = a1 * c2 - a2 * c1
            if det < 0:
                det, xn, yn = -det, -xn, -yn
            if det and all(cl * xn + cm * yn <= rhs * det for cl, cm, rhs in lines):
                points.add((Fraction(xn, det), Fraction(yn, det)))
    vertices = _hull_ccw(points)
    # Only the anti-plurality shape is unbounded: a direction (dl, dm) != 0 with
    # 0 <= dl <= dm stays inside every row only if all of w[1..m-1] equal 1,
    # and then dl is forced to 0 by the first row.
    rays = ((Fraction(0), Fraction(1)),) if rule.has_unbounded_direction else ()
    assert len(vertices) <= m + 1, "a 2-D region cut by m+1 halfplanes has at most m+1 vertices"
    dens = [scale] * (m - 1) + [1, 1]
    rows = tuple(tuple(Fraction(c, den) for c in line) for line, den in zip(lines, dens))
    return Polytope2D(m, vertices, rays, rows)


def sigma_scaled(poly: Polytope2D, rule: ScoreVector) -> tuple:
    """Vertices scaled by the per-ballot score deviation (the figure normalization)."""
    s = rule.sigma
    return tuple((float(x) * s, float(y) * s) for x, y in poly.vertices)


def q_dual(margins: MarginPair, poly: Polytope2D):
    """Vertex maximum of the dual objective, or +inf along a positive ray."""
    A, B = margins.a_margin, margins.b_deficit
    for rl, rm in poly.rays:
        if rl * A + rm * B > 0:
            return math.inf
    return max(v[0] * A + v[1] * B for v in poly.vertices)


def optimal_vertex_set(margins: MarginPair, poly: Polytope2D) -> tuple:
    """All vertices attaining q_dual, margins read exactly (empty when the value is unbounded)."""
    A, B = Fraction(margins.a_margin), Fraction(margins.b_deficit)
    best = q_dual(MarginPair(A, B), poly)  # inf past a positive ray, which no vertex attains
    return tuple(v for v in poly.vertices if v[0] * A + v[1] * B == best)


def cone_optimal_vertices(poly: Polytope2D) -> tuple:
    """Vertices that attain the dual maximum on a positive measure of margins.

    Margin directions from real scoreboards sweep the cone between (1, -1)
    and (1, 1/(m-1)) (up to positive scaling).  A vertex counts when its
    argmax set of directions has positive length, with directions of
    unbounded objective (past a recession ray) excluded.  Computed once per
    polytope object (Polytope2D.cone_optimal).
    """
    return poly.cone_optimal


def _cone_optimal_vertices(poly):
    m = poly.m
    slope = Fraction(m, m - 1)  # dB/dtheta along d(theta) = (1, -1 + theta*m/(m-1))
    points = [(Fraction(x), Fraction(y)) for x, y in poly.vertices]
    rays = [(Fraction(x), Fraction(y)) for x, y in poly.rays]
    out = []
    for v, (vx, vy) in zip(poly.vertices, points):
        # v needs (v - u) . d(theta) >= 0 for every other vertex u, and r . d(theta) <= 0 for
        # every ray r to keep the maximum finite: that is the rival point u = v + r
        rivals = [u for u in points if u != (vx, vy)] + [(vx + rx, vy + ry) for rx, ry in rays]
        lo, hi = Fraction(0), Fraction(1)
        for ux, uy in rivals:
            c0 = (vx - ux) - (vy - uy)
            c1 = (vy - uy) * slope
            if c1 > 0:
                lo = max(lo, -c0 / c1)
            elif c1 < 0:
                hi = min(hi, -c0 / c1)
            elif c0 < 0:
                hi = lo  # u beats v at every theta: the range stays empty
        if lo < hi:
            out.append(v)
    return tuple(out)


# --------------------------------------------------------------------- #
# The stratified primal and the named closed forms
# --------------------------------------------------------------------- #

@per_rule
def _stratified_rows(rule: ScoreVector) -> tuple:
    """q_stratified's rows: catch-up 1 - w[i] + w[i+1] and lift 1 - w[i], for i < m - 1."""
    w = rule.weights
    return (tuple(1 - w[i] + w[i + 1] for i in range(rule.m - 1)),
            tuple(1 - w[i] for i in range(rule.m - 1)))


def q_stratified(margins: MarginPair, rule: ScoreVector):
    """Solve the per-stratum recruitment program; returns (value, z) or (inf, None)."""
    catch_up, lift = _stratified_rows(rule)
    program = lp.LinearProgram(
        (1,) * (rule.m - 1),
        "min",
        (
            (catch_up, ">=", margins.gap),
            (lift, ">=", margins.b_deficit),
        ),
    )
    out = _solved(program)
    if out.status is lp.LpStatus.INFEASIBLE:
        return math.inf, None
    return out.value, out.point


def k_constant(rule: ScoreVector):
    """Rounding constant bounding the integrality + recruitment-limit gap, floats read exactly."""
    if rule.has_unbounded_direction:
        return 0
    return 2 * math.factorial(rule.m) / (1 - Fraction(rule.weights[-2]))


def closed_form_q(family: str, margins: MarginPair, *, m=None, k=None, p=None):
    """Literal closed-form dual values for the named families.

    Valid on margins from real scoreboards (a_margin >= 0 and
    -a_margin <= b_deficit <= a_margin/(m-1)); matches q_dual there.
    """
    gap = margins.gap
    B = margins.b_deficit
    if family == "borda":
        if m is None or m < 3:
            raise ParamOutOfRange("borda needs m >= 3")
        return Fraction(m - 1, m - 2) * gap
    if family in ("k-approval", "approval"):
        if m is None or k is None or not 1 <= k <= m - 2:
            raise ParamOutOfRange(
                "k-approval needs 1 <= k <= m-2 (k = m-1 is the anti-plurality family)"
            )
        return gap
    if family in ("anti-plurality", "antiplurality"):
        if B > 0:
            return math.inf
        return gap
    if family in ("easy", "hard"):
        if p is None:
            raise ParamOutOfRange(f"{family} needs p")
        p = Fraction(p)  # floats read exactly
        if m not in (None, 3):
            raise ParamOutOfRange("the easy/hard families live on three candidates")
        if family == "easy":
            if not Fraction(1, 2) <= p <= 1:
                raise ParamOutOfRange(f"easy needs 1/2 <= p <= 1, got {p}")
            return gap / p
        if not 0 < p <= Fraction(1, 2):
            raise ParamOutOfRange(f"hard needs 0 < p <= 1/2, got {p}")
        spread = gap / (1 - p)
        if B > 0:
            spread += (1 / p - 1 / (1 - p)) * B
        return spread
    raise UnknownFamily(f"no closed form for {family!r}")


# --------------------------------------------------------------------- #
# The constructive witness
# --------------------------------------------------------------------- #

def witness_from_z(inst: ManipulationInstance, z) -> CoalitionPlan:
    """Build a fractional stratified plan realizing the recruitment totals z.

    z must satisfy the two aggregate rows (catch-up and lift); the returned
    plan is feasible for the stratified program with per-stratum sums equal
    to z.  Raises ZInfeasible when z fails the rows and ConstructionFailed
    if the assembled plan does not re-verify.

    A recruit of stratum i buries a at the bottom with share r*u[c], keeps a
    where it was with share (1-r)*v[c], or (i = 1) votes sincerely with
    share 1-r; see _exact_shares for r, u and v.  Every input is read
    exactly, floats too.  When one is a float, each amount is computed
    exactly and rounded once, to a float, and is re-checked within 1e-7.
    """
    if inst.beta != inst.b:
        raise InvalidInput("the witness construction targets the runner-up")
    m = inst.m
    if len(z) != m - 1:
        raise InvalidInput(f"z needs m-1 = {m - 1} entries, got {len(z)}")
    exact = inst.rule.is_rational and all(map(_is_exact, inst.scores)) and all(map(_is_exact, z))
    others = [c for c in range(m) if c not in (inst.a, inst.b)]
    zs, sincere, ru, rv, v, den = _exact_shares(inst, z, others, exact)

    fact_small = math.factorial(max(m - 3, 0))
    fact_mid = math.factorial(m - 2)

    def per(q, zi, fact):  # an int over den * fact_mid, since fact divides fact_mid
        return q * zi * (fact_mid // fact)

    # per-type amounts, each product formed once per (candidate, stratum)
    bury = {(c, i): per(ru[c], zs[i - 1], fact_small) for c in others for i in range(1, m - 1)}
    keep = {(c, i): per(rv[c], zs[i - 1], fact_small) for c in others for i in range(2, m - 1)}
    top = per(sincere, zs[0], fact_mid)
    low = {c: per(v[c], zs[m - 2], fact_small) for c in others}
    # a recruit type of stratum i: its buriers, keyed by its last-place candidate (i < m-1),
    # and its keepers, keyed by its first-place one (1 < i < m-1), or its sincere voters
    # (i = 1); stratum m-1 ranks a last already.  An empty stratum (q_stratified's z has at
    # most two non-empty ones) adds nothing.
    x = {}
    for i, stratum in enumerate(inst.strata, 1):
        if zs[i - 1]:
            for t in stratum:
                if i == m - 1:
                    x[t] = low[t[0]]
                else:
                    x[t] = bury[t[m - 1], i] + (top if i == 1 else keep[t[0], i])
    # a ballot, by a's place p in it: every stratum's buriers and stratum m-1 (p = m-1),
    # stratum p's keepers (1 < p < m-1) or the sincere voters (p = 1)
    y = {}
    for t in inst.first_types:
        p = t.index(inst.a)
        if p == m - 1:
            y[t] = sum(bury[t[i], i] for i in range(1, m - 1)) + low[t[m - 2]]
        elif zs[p - 1]:
            y[t] = top if p == 1 else keep[t[p - 1], p]

    def entries(table):  # int / int rounds once, also past 2**53
        return {t: Fraction(amt, den * fact_mid) if exact else amt / (den * fact_mid)
                for t, amt in table.items() if amt != 0}

    plan = CoalitionPlan(x=entries(x), y=entries(y))
    issues = verify_stratified_plan(inst, plan, z=z, tol=0 if exact else 1e-7)
    if issues:
        raise ConstructionFailed("; ".join(issues))
    return plan


def _exact_shares(inst, z, others, exact):
    """(zs, 1-r, r*u, (1-r)*v, v, den), every one an int.

    zs are z's numerators over dz.  The scores, their mean, A, B, the
    target r*A and caps_rhs are numerators over G = m * sden * dz * S, with
    sden the scores' common denominator and S the weights'; r is rn / rd, u
    is un / ud and v is vn / (ud * k).  The four shares are numerators over
    rd * ud * k, and den is that times dz: an amount q * zs[j] is over den.

    Floats are read exactly.  When an input is one (exact is False), a z
    entry down to -1e-9 counts as 0, the rows may miss by 1e-8 in score
    units and r is clamped to [0, 1]: float arithmetic left them that slack.
    """
    m = inst.m
    ztol, rowtol = (0, 0) if exact else (Fraction(1, 10**9), Fraction(1, 10**8))
    zs, dz = lp.lcd_ints(z)
    if any(zi < -ztol * dz for zi in zs):
        raise ZInfeasible("negative recruitment total")
    zs = [max(zi, 0) for zi in zs]
    scale, ints = integer_weights(inst.rule)
    lead, sden = inst.board.ints
    unit = m * dz * scale  # a numerator over sden, times unit, is over G
    a_s, b_s = lead[inst.a] * unit, lead[inst.b] * unit
    mean = sum(lead) * dz * scale
    A = sum(zj * wj for zj, wj in zip(zs, ints[1:])) * m * sden
    B = sum(zj * (scale - wj) for zj, wj in zip(zs, ints)) * m * sden
    slack = rowtol * m * sden * dz * scale
    if A + B < a_s - b_s - slack:
        raise ZInfeasible("z misses the catch-up row")
    if B < mean - b_s - slack:
        raise ZInfeasible("z misses the lift row")

    # r in [0,1] with |a|-|b|-B <= r*A <= (m-1)(|b|+B-mean) + (|a|-mean), so r*A is rn / G.
    # Exact rows leave both upper bounds slack: the catch-up row keeps |a|-|b|-B <= A, and
    # the second bound exceeds |a|-|b|-B by m*(B - (mean-|b|)) >= 0 on the lift row.  Rows
    # met only within the float slack can put |a|-|b|-B past A: r is then clamped at 1.
    rn, rd = (min(max(a_s - b_s - B, 0), A), A) if A > 0 else (0, 1)

    if m == 3:
        k, ud, un, vn = 1, 1, {others[0]: 1}, {others[0]: 1}  # u = v = 1
    else:
        # u = caps / sum(caps), caps = caps_rhs / (r*A + B/k): the positive denominator cancels
        k = m - 3
        if rn * k + B <= 0:  # (r*A + B/k) * G * k
            un, ud = dict.fromkeys(others, 1), m - 2
        else:
            # caps_rhs * G * k
            un = {al: (b_s - lead[al] * unit) * k + (m - 2) * B for al in others}
            ud = sum(un.values())
        vn = {al: ud - un[al] for al in others}  # v = (1 - u) / k
    ru = {c: rn * un[c] * k for c in others}
    rv = {c: (rd - rn) * vn[c] for c in others}
    v = {c: rd * vn[c] for c in others}
    return zs, (rd - rn) * ud * k, ru, rv, v, rd * ud * k * dz
