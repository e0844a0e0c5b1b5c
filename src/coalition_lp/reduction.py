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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .election import InvalidInput, ScoreVector, Scoreboard, TIE_TOL, _close, _is_exact, top_two
from .exact import CoalitionPlan, ManipulationInstance, verify_stratified_plan


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
        """Whether some m-candidate scoreboard realizes these margins."""
        lo, hi = -self.a_margin, self.a_margin / (m - 1)
        if _is_exact(self.a_margin) and _is_exact(self.b_deficit):
            return self.a_margin >= 0 and lo <= self.b_deficit <= hi
        t = TIE_TOL
        return self.a_margin >= -t and lo - t <= self.b_deficit <= hi + t


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
                raise ValueError(f"polytope JSON lacks {key!r}")

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


def mw_polytope(rule: ScoreVector) -> Polytope2D:
    """The feasible region of the two-variable dual program for the rule."""
    w = rule.weights
    m = rule.m
    exact = rule.is_rational
    one = Fraction(1) if exact else 1.0
    zero = one - one
    rows = []
    for i in range(1, m):  # w[i] is w_{i+1}, w[i-1] is w_i in 1-based terms
        rows.append((w[i] + zero, one - w[i - 1], one))
    rows.append((-one, zero, zero))  # 0 <= lam
    rows.append((one, -one, zero))  # lam <= mu

    def feasible(pt):
        slackless = TIE_TOL if not exact else 0
        return all(cl * pt[0] + cm * pt[1] <= rhs + slackless for cl, cm, rhs in rows)

    points = set()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a1, b1, c1 = rows[i]
            a2, b2, c2 = rows[j]
            det = a1 * b2 - a2 * b1
            if det == 0 or (not exact and abs(det) <= TIE_TOL):
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if feasible((x, y)):
                points.add((x, y))
    vertices = _hull_ccw(points)
    # Only the anti-plurality shape is unbounded: a direction (dl, dm) != 0 with
    # 0 <= dl <= dm stays inside every row only if all of w[1..m-1] equal 1,
    # and then dl is forced to 0 by the first row.
    rays = ((zero, one),) if rule.has_unbounded_direction else ()
    assert len(vertices) <= m + 1, "a 2-D region cut by m+1 halfplanes has at most m+1 vertices"
    return Polytope2D(m, vertices, rays, tuple(rows))


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
    """All vertices attaining q_dual (empty when the value is unbounded)."""
    best = q_dual(margins, poly)
    if best == math.inf:
        return ()
    A, B = margins.a_margin, margins.b_deficit
    return tuple(v for v in poly.vertices if _close(v[0] * A + v[1] * B, best))


def cone_optimal_vertices(poly: Polytope2D) -> tuple:
    """Vertices that attain the dual maximum on a positive measure of margins.

    Margin directions from real scoreboards sweep the cone between (1, -1)
    and (1, 1/(m-1)) (up to positive scaling).  A vertex counts when its
    argmax set of directions has positive length, with directions of
    unbounded objective (past a recession ray) excluded.
    """
    m = poly.m
    slope = Fraction(m, m - 1)  # dB/dtheta along d(theta) = (1, -1 + theta*m/(m-1))
    out = []
    for v in poly.vertices:
        lo, hi = Fraction(0), Fraction(1)
        feasible = True
        for u in poly.vertices:
            if u == v:
                continue
            c0 = Fraction(v[0] - u[0]) - Fraction(v[1] - u[1])
            c1 = Fraction(v[1] - u[1]) * slope
            if c1 > 0:
                lo = max(lo, -c0 / c1)
            elif c1 < 0:
                hi = min(hi, -c0 / c1)
            elif c0 < 0:
                feasible = False
                break
        for r in poly.rays:
            c0 = Fraction(r[0]) - Fraction(r[1])
            c1 = Fraction(r[1]) * slope
            # need r . d(theta) <= 0 to keep the maximum finite
            if c1 > 0:
                hi = min(hi, -c0 / c1)
            elif c1 < 0:
                lo = max(lo, -c0 / c1)
            elif c0 > 0:
                feasible = False
                break
        if feasible and lo < hi:
            out.append(v)
    return tuple(out)


# --------------------------------------------------------------------- #
# The stratified primal and the named closed forms
# --------------------------------------------------------------------- #

def q_stratified(margins: MarginPair, rule: ScoreVector):
    """Solve the per-stratum recruitment program; returns (value, z) or (inf, None)."""
    w = rule.weights
    m = rule.m
    catch_up = tuple(1 - w[i] + w[i + 1] for i in range(m - 1))
    lift = tuple(1 - w[i] for i in range(m - 1))
    program = lp.LinearProgram(
        tuple([1] * (m - 1)),
        "min",
        (
            (catch_up, ">=", margins.gap),
            (lift, ">=", margins.b_deficit),
        ),
    )
    out = lp.solve(program)
    if out.status is lp.LpStatus.INFEASIBLE:
        return math.inf, None
    if out.status is lp.LpStatus.UNBOUNDED:
        raise lp.NumericalFailure("a minimization with non-negative objective cannot be unbounded")
    return out.value, out.point


def k_constant(rule: ScoreVector):
    """Rounding constant bounding the integrality + recruitment-limit gap."""
    if rule.has_unbounded_direction:
        return 0
    m = rule.m
    second_last = Fraction(rule.weights[-2]) if rule.is_rational else rule.weights[-2]
    return 2 * math.factorial(m) / (1 - second_last)


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
        p = Fraction(p) if _is_exact(p) or isinstance(p, str) else p
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
    """
    if inst.beta != inst.b:
        raise ValueError("the witness construction targets the runner-up")
    m = inst.m
    w = inst.rule.weights
    exact = inst.rule.is_rational and all(_is_exact(s) for s in inst.scores) and all(
        _is_exact(zi) for zi in z
    )
    conv = Fraction if exact else float
    tol = 0 if exact else 1e-9
    z = [conv(zi) for zi in z]
    if len(z) != m - 1:
        raise ValueError(f"z needs m-1 = {m - 1} entries, got {len(z)}")
    if any(zi < -tol for zi in z):
        raise ZInfeasible("negative recruitment total")
    z = [max(zi, conv(0)) for zi in z]

    a_s = conv(inst.scores[inst.a])
    b_s = conv(inst.scores[inst.b])
    mean = conv(inst.mean_score)
    A = sum(z[j] * conv(w[j + 1]) for j in range(m - 1))
    B = sum(z[j] * (1 - conv(w[j])) for j in range(m - 1))
    if A + B < a_s - b_s - tol * 10:
        raise ZInfeasible("z misses the catch-up row")
    if B < mean - b_s - tol * 10:
        raise ZInfeasible("z misses the lift row")

    others = [c for c in range(m) if c not in (inst.a, inst.b)]

    # r in [0,1] with |a|-|b|-B <= r*A <= (m-1)(|b|+B-mean) + (|a|-mean).
    upper = (m - 1) * (b_s + B - mean) + (a_s - mean)
    if A > 0:
        target = max(conv(0), a_s - b_s - B)
        target = min(target, A, upper)
        r = target / A
        r = min(max(r, conv(0)), conv(1))
    else:
        r = conv(0)

    if m == 3:
        u = {others[0]: conv(1)}
        v = {others[0]: conv(1)}
    else:
        denom = r * A + B / (m - 3)
        caps_rhs = {al: b_s - conv(inst.scores[al]) + Fraction(m - 2, m - 3) * B for al in others}
        if denom <= tol:
            u = {al: conv(1) / (m - 2) for al in others}
        else:
            caps = {al: caps_rhs[al] / denom for al in others}
            total = sum(caps.values())
            u = {al: caps[al] / total for al in others}
        v = {al: (1 - u[al]) / (m - 3) for al in others}

    fact_small = math.factorial(max(m - 3, 0))
    fact_mid = math.factorial(m - 2)
    x = {}
    y = {}

    def add(table, t, amount):
        if amount:
            table[t] = table.get(t, conv(0)) + amount

    # recruits who bury a at the bottom, keyed by their own last-place candidate
    for i in range(1, m - 1):
        for t in inst.strata[i - 1]:
            add(x, t, r * u[t[m - 1]] * z[i - 1] / fact_small)
    for t in inst.first_types:
        if t[m - 1] == inst.a:
            amount = sum(r * u[t[i]] * z[i - 1] / fact_small for i in range(1, m - 1))
            add(y, t, amount)
    # recruits who keep a where it was, keyed by their first-place candidate
    for i in range(2, m - 1):
        for t in inst.strata[i - 1]:
            add(x, t, (1 - r) * v[t[0]] * z[i - 1] / fact_small)
        for t in inst.first_types:
            if t[i] == inst.a:
                add(y, t, (1 - r) * v[t[i - 1]] * z[i - 1] / fact_small)
    # top-stratum recruits who vote sincerely
    for t in inst.strata[0]:
        amount = (1 - r) * z[0] / fact_mid
        add(x, t, amount)
        add(y, t, amount)
    # bottom-stratum recruits (a already last on their sincere ballot)
    for t in inst.strata[m - 2]:
        add(x, t, v[t[0]] * z[m - 2] / fact_small)
    for t in inst.first_types:
        if t[m - 1] == inst.a:
            add(y, t, v[t[m - 2]] * z[m - 2] / fact_small)

    plan = CoalitionPlan(
        x={t: amt for t, amt in x.items() if amt != 0},
        y={t: amt for t, amt in y.items() if amt != 0},
    )
    check_tol = 0 if exact else 1e-7
    issues = verify_stratified_plan(inst, plan, z=z, tol=check_tol)
    if issues:
        raise ConstructionFailed("; ".join(issues))
    return plan
