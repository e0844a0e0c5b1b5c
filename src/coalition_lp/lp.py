"""A small deterministic simplex solver.

Two-phase dense simplex with Bland's rule.  When every coefficient is an int
or Fraction the solve is exact and runs on integer rows: each row is scaled
once to Python ints over one positive int denominator, and tableau rows stay
so, reduced by their gcd after every update.  Every sign test and ratio
comparison is the rational one, so it takes the same pivots as a Fraction
tableau and returns the same Fractions; the optimal point is re-checked, with
no slack, against every original row in the same integer form.  Otherwise
floats are used with a pivot tolerance of 1e-9 and the point is re-verified
against every constraint to a relative 1e-8 before being returned.

No scaling, no revised simplex, no presolve; identical inputs always take
identical pivots.  The outcome carries the final basis (LpOutcome.basis), so
that a caller can answer other right-hand sides from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
MAX_PIVOTS = 100_000

RELATIONS = ("<=", "=", ">=")
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}  # the relation of a row times -1


class DimensionMismatch(Exception):
    pass


class NumericalFailure(Exception):
    pass


class StatusMismatch(Exception):
    pass


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min or max of objective . x subject to rows, with x >= 0 implicit."""

    objective: tuple
    sense: str
    rows: tuple  # of (coeffs tuple, relation str, rhs)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if len(self.objective) == 0:
            raise DimensionMismatch("objective must have at least one variable")
        for coeffs, rel, _rhs in self.rows:
            if len(coeffs) != len(self.objective):
                raise DimensionMismatch(
                    f"row has {len(coeffs)} coefficients, objective has {len(self.objective)}"
                )
            if rel not in RELATIONS:
                raise ValueError(f"relation must be one of {RELATIONS}, got {rel!r}")

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def is_rational(self) -> bool:
        types = set(map(type, self.objective))
        for coeffs, _rel, rhs in self.rows:
            types.update(map(type, coeffs))
            types.add(type(rhs))
        return types <= {int, Fraction}  # bool is its own type, so it is rejected


@dataclass(frozen=True)
class LpOutcome:
    """The status, value and point of a solve, and its final basis, one column label per row.

    The basis is phase 2's when the program is optimal, phase 1's when it is
    infeasible, and empty when it is unbounded.  With n variables and r rows,
    label j < n is variable j, n + i the slack or surplus of row i, and
    n + r + i the artificial of row i (+1 in the row as posed when its rhs is
    >= 0, else -1).  A row that phase 1 finds redundant is dropped, and its
    label with it.
    """

    status: LpStatus
    value: object  # Fraction or float; +-inf for non-optimal statuses
    point: tuple | None
    basis: tuple = field(default=(), compare=False, repr=False)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve the program; see the module docstring for guarantees."""
    exact = lp.is_rational
    tol = 0 if exact else PIVOT_TOL
    zero, one = (0, 1) if exact else (0.0, 1.0)
    minimize = lp.sense == "min"
    n = lp.n_vars

    # Each row scaled once: the tableau starts from these and the re-check reads them.
    scaled = [(*_scaled((*coeffs, b), exact), rel) for coeffs, rel, b in lp.rows]
    # Rows with non-negative rhs; columns are original | slack/surplus | artificial | rhs.
    body = [row if row[-1] >= 0 else [-x for x in row] for row, _, _ in scaled]
    rels = [rel if row[-1] >= 0 else _FLIPPED[rel] for row, _, rel in scaled]
    dens = [den for _, den, _ in scaled]

    nrows = len(body)
    slack_of = [None] * nrows
    art_of = [None] * nrows
    ncols = n
    for i, rel in enumerate(rels):
        if rel in ("<=", ">="):
            slack_of[i] = ncols
            ncols += 1
    art_base = ncols
    for i, rel in enumerate(rels):
        if rel in (">=", "="):
            art_of[i] = ncols
            ncols += 1

    # Row i stands for tableau[i] / dens[i] (float dens stay 1.0); after the
    # nrows constraints, tableau[-1] is the cost row of the current phase.
    tableau = []
    basis = []
    for i in range(nrows):
        row = body[i][:n] + [zero] * (ncols - n) + body[i][n:]
        if slack_of[i] is not None:
            row[slack_of[i]] = dens[i] if rels[i] == "<=" else -dens[i]
        if art_of[i] is not None:
            row[art_of[i]] = dens[i]
            basis.append(art_of[i])
        else:
            basis.append(slack_of[i])
        tableau.append(row)

    pivots_left = [MAX_PIVOTS]

    def labels():  # the basis as LpOutcome.basis labels
        r = len(lp.rows)
        label = [*range(n), *(n + i for i in range(r) if slack_of[i] is not None),
                 *(n + r + i for i in range(r) if art_of[i] is not None)]
        return tuple(label[k] for k in basis)

    def run(allowed):
        """Bland-rule iterations on tableau[-1]; returns 'optimal' or 'unbounded'."""
        while True:
            cost_row = tableau[-1]
            entering = -1
            for j in range(allowed):
                if cost_row[j] < -tol and j not in basis:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leaving = -1
            for i in range(nrows):
                a = tableau[i][entering]
                if a > tol:
                    if leaving >= 0:
                        # rhs_i / a against the best ratio so far; exact rows
                        # compare by cross-multiplication, where dens cancel
                        c = tableau[leaving][entering]
                        if exact:
                            ratio, best = tableau[i][-1] * c, tableau[leaving][-1] * a
                        else:
                            ratio, best = tableau[i][-1] / a, tableau[leaving][-1] / c
                        if not (ratio < best or (ratio == best and basis[i] < basis[leaving])):
                            continue
                    leaving = i
            if leaving < 0:
                return "unbounded"
            pivots_left[0] -= 1
            if pivots_left[0] < 0:
                raise NumericalFailure("pivot budget exhausted; possible cycling")
            _pivot(tableau, dens, basis, leaving, entering, exact)

    # Phase 1: minimize the sum of artificials.
    if art_base < ncols:
        tableau.append([zero] * art_base + [one] * (ncols - art_base) + [zero])
        dens.append(one)
        for i in range(nrows):
            if basis[i] >= art_base:
                _eliminate(tableau, dens, nrows, i, basis[i], exact)
        status = run(ncols)
        if status != "optimal":
            raise NumericalFailure("phase 1 reported unbounded")
        if -tableau[-1][-1] > (0 if exact else FEAS_TOL):
            return LpOutcome(LpStatus.INFEASIBLE, math.inf if minimize else -math.inf, None,
                             labels())
        # Drive leftover artificials out of the basis; drop redundant rows.
        for i in range(nrows - 1, -1, -1):
            if basis[i] >= art_base:
                entering = -1
                for j in range(art_base):
                    if abs(tableau[i][j]) > tol:
                        entering = j
                        break
                if entering >= 0:
                    _pivot(tableau, dens, basis, i, entering, exact)
                else:
                    del tableau[i]
                    del dens[i]
                    del basis[i]
                    nrows -= 1
        tableau.pop()
        dens.pop()

    # Phase 2 over the original columns only.
    cost, cost_den = _scaled(lp.objective, exact)
    if not minimize:
        cost = [-c for c in cost]
    tableau[:] = [row[:art_base] + [row[-1]] for row in tableau]
    tableau.append(cost + [zero] * (art_base - n) + [zero])
    dens.append(cost_den)
    for i in range(nrows):
        _eliminate(tableau, dens, nrows, i, basis[i], exact)
    status = run(art_base)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED, -math.inf if minimize else math.inf, None)

    # The point is xs / scale: the basic rows' integer rhs over one lcm, or floats over 1.0.
    basic = [(basis[i], i) for i in range(nrows) if basis[i] < n]
    scale = math.lcm(*(dens[i] for _, i in basic)) if exact else 1.0
    xs = [zero] * n
    point = [Fraction(0) if exact else zero] * n
    for j, i in basic:
        xs[j] = tableau[i][-1] * (scale // dens[i]) if exact else tableau[i][-1]
        point[j] = Fraction(xs[j], scale) if exact else xs[j]
    total = sum(c * x for c, x in zip(cost, xs))
    value = Fraction(total, cost_den * scale) if exact else total / cost_den
    if not minimize:
        value = -value
    _verify_feasible(scaled, xs, scale, exact)
    return LpOutcome(LpStatus.OPTIMAL, value, tuple(point), labels())


def lcd_ints(values):
    """(ints, den): ints, Fractions or finite floats read exactly, as ints over their lcd.

    Every float is a dyadic rational, so as_integer_ratio() loses nothing.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _scaled(values, exact):
    """Exact values as ints over their common denominator, with it; floats with 1.0."""
    return lcd_ints(values) if exact else ([float(v) for v in values], 1.0)


def _pivot(tableau, dens, basis, leaving, entering, exact):
    """Scale row `leaving` to a 1 in column `entering` and clear that column elsewhere."""
    piv = tableau[leaving][entering]
    if not exact:
        inv = 1.0 / piv
        tableau[leaving] = [x * inv for x in tableau[leaving]]
    else:
        # the row over piv: its entries keep the sign, |piv| is the new denominator
        row = tableau[leaving] if piv > 0 else [-x for x in tableau[leaving]]
        tableau[leaving], dens[leaving] = _reduced(row, abs(piv))
    for i in range(len(tableau)):
        if i != leaving:
            _eliminate(tableau, dens, i, leaving, entering, exact)
    basis[leaving] = entering


def _eliminate(tableau, dens, i, r, e, exact):
    """Subtract from row i the multiple of row r that clears column e; row r is 1 there."""
    f = tableau[i][e]
    if f == 0:
        return
    if not exact:
        tableau[i] = [x - f * p for x, p in zip(tableau[i], tableau[r])]
    else:
        # (d_r * T_i - T_i[e] * T_r) / (d_i * d_r), where T_r[e] == d_r
        d = dens[r]
        row = [d * x - f * p for x, p in zip(tableau[i], tableau[r])]
        tableau[i], dens[i] = _reduced(row, dens[i] * d)


def _reduced(row, den):
    g = math.gcd(*row, den)
    return (row, den) if g == 1 else ([x // g for x in row], den // g)


def _verify_feasible(rows, xs, scale, exact: bool):
    """Re-check the point xs / scale against every original row, as (ints, den, rel).

    Exact rows and xs are ints, so the check is integer arithmetic with no
    slack; float rows get a relative FEAS_TOL.
    """
    for i, (row, den, rel) in enumerate(rows):
        lhs = sum(c * x for c, x in zip(row, xs))
        rhs = row[-1] * scale
        slack = 0 if exact else FEAS_TOL * (1.0 + abs(rhs))
        d = lhs - rhs
        ok = (d <= slack) if rel == "<=" else (d >= -slack) if rel == ">=" else abs(d) <= slack
        if not ok:
            raise NumericalFailure(f"optimal point violates row {i} ({rel}): {row} over {den}")
    if any(x < (0 if exact else -FEAS_TOL) for x in xs):
        raise NumericalFailure("optimal point has a negative coordinate")


def dual_gap_check(primal: LinearProgram, dual: LinearProgram):
    """Solve both programs and return |primal optimum - dual optimum|.

    A primal/dual pair may also legitimately land on (infeasible, unbounded)
    or (infeasible, infeasible); those count as gap 0.  Any pairing of an
    optimal program with a non-optimal one raises StatusMismatch, as does
    the impossible (unbounded, unbounded).
    """
    p = solve(primal)
    d = solve(dual)
    if p.status is LpStatus.OPTIMAL and d.status is LpStatus.OPTIMAL:
        return abs(p.value - d.value)
    if p.status is LpStatus.OPTIMAL or d.status is LpStatus.OPTIMAL:
        raise StatusMismatch(f"{p.status.value} paired with {d.status.value}")
    if p.status is LpStatus.UNBOUNDED and d.status is LpStatus.UNBOUNDED:
        raise StatusMismatch("both programs unbounded; not a valid dual pair")
    return 0
