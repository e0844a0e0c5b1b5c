"""Limiting behaviour of coalition sizes under impartial culture.

As n grows, the minimum coalition size divided by sqrt(n) converges to

    V_w = max over scale*M_w of  lam*(rho1(Z) - Zbar) + mu*(Zbar - rho2(Z))

where Z is a vector of m iid standard normals, rho1 >= rho2 are its two
largest coordinates, and scale = sigma_w * sqrt(m/(m-1)).  This module
estimates g_w(v) = P(V_w <= v) by Monte Carlo, evaluates the closed
coefficient form V_w = c_w*(rho1 - rho2) when the polytope admits it, and
decides the dominance partial order between rules.

Sampling is chunked: chunk i draws from a generator seeded with
SeedSequence((*seed, i)), so estimates do not depend on the worker count
and are reproducible for a fixed seed.
"""

from __future__ import annotations

import enum
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .election import MAX_CANDIDATES, InvalidInput, ScoreVector, _check_m, sample_scoreboards
from .reduction import Polytope2D, cone_optimal_vertices, mw_polytope

CHUNK = 1 << 18
BLOCK = 1 << 14  # rows per network pass: the m columns of a block stay in cache
Z95 = 1.959963984540054


class GridTooCoarse(InvalidInput):
    pass


@dataclass(frozen=True)
class LimitModel:
    """Everything needed to sample the limiting coalition-size variable."""

    m: int
    sigma: float
    polytope: Polytope2D
    scaled_vertices: np.ndarray  # (V, 2) float, already multiplied by scale
    has_ray: bool
    dots: tuple  # vertices optimal on a positive measure of margins
    dot_rows: tuple  # the rows of scaled_vertices that hold the dots
    diag_coeff_sq: Fraction
    c_w: float | None  # set when V_w = c_w * (rho1 - rho2)


def limit_model(rule: ScoreVector) -> LimitModel:
    poly = mw_polytope(rule)
    m = rule.m
    w = rule.weights  # read exactly, floats too, as mw_polytope reads them
    coefs = [1 - Fraction(w[i]) + Fraction(w[i + 1]) for i in range(m - 1)]
    b_w = 1 / max(coefs)
    diag_sq = rule.variance * Fraction(m, m - 1) * b_w * b_w
    scale = math.sqrt(float(rule.variance) * m / (m - 1))
    dots = cone_optimal_vertices(poly)
    diag = (b_w, b_w)
    is_c_form = not poly.rays and len(dots) == 1 and dots[0] == diag
    verts = np.array([[float(x), float(y)] for x, y in poly.vertices]) * scale
    return LimitModel(
        m=m,
        sigma=rule.sigma,
        polytope=poly,
        scaled_vertices=verts,
        has_ray=bool(poly.rays),
        dots=dots,
        dot_rows=tuple(poly.vertices.index(v) for v in dots),
        diag_coeff_sq=diag_sq,
        c_w=math.sqrt(float(diag_sq)) if is_c_form else None,
    )


def sample_vw_batch(model: LimitModel, rng, size: int) -> np.ndarray:
    """Draw `size` independent copies of the limit variable (inf allowed).

    Only the cone-optimal vertices are evaluated: every other vertex attains
    the maximum on a set of margin directions of probability zero, and where
    it ties a dot the dot gives the same value.
    """
    top, second, zbar = _top_two_mean(rng, size, model.m)
    dots = model.scaled_vertices[list(model.dot_rows)]
    return _vertex_max(top - zbar, zbar - second, dots, model.has_ray)


def _top_two_mean(rng, size, m):
    """Rows (largest, second largest, mean) of `size` draws of m normals.

    Bit-equal to z[:, -1], z[:, -2] and z.mean(axis=1) of one sorted (size, m)
    draw: the blocks consume the same stream, and a sorting network orders each
    block's columns (past MAX_CANDIDATES numpy sorts and averages each block).
    """
    out = np.empty((3, size))
    network = _merge_exchange(m) if m <= MAX_CANDIDATES else None
    for lo in range(0, size, BLOCK):
        z = rng.standard_normal((min(BLOCK, size - lo), m))
        if network is None:
            z.sort(axis=1)
            c, zbar = z.T, z.mean(axis=1)
        else:
            c, spare = list(z.T.copy()), np.empty(len(z))
            for i, j in network:
                np.minimum(c[i], c[j], out=spare)
                np.maximum(c[i], c[j], out=c[j])
                c[i], spare = spare, c[i]
            # the bytes equal z.mean(axis=1) only in numpy's order of a row sum:
            # left to right below 8 values, a pairwise tree at 8
            zbar = (sum(c[1:], c[0]) if m < 8 else
                    ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))) / m
        out[:, lo:lo + len(z)] = c[-1], c[-2], zbar
    return out


def _merge_exchange(m):
    """Batcher's merge exchange (Knuth 5.2.2 M); at m = 3..8 it has the fewest pairs."""
    pairs, t = [], (m - 1).bit_length()
    for p in (1 << k for k in reversed(range(t))):
        q, r, d = 1 << (t - 1), 0, p
        while d:
            pairs += [(i, i + d) for i in range(m - d) if i & p == r]
            q, r, d = q >> 1, p, q - p
    return pairs


def _vertex_max(a, b, verts, has_ray):
    """max over vertices (vx, vy) of a*vx + b*vy, and +inf where b > 0 if M_w has a ray.

    A running elementwise maximum, so no (len(a), len(verts)) array is built;
    max is exact, so the values equal those of the outer-product form.
    """
    (vx, vy), *rest = verts
    vals = a * vx + b * vy
    for vx, vy in rest:
        np.maximum(vals, a * vx + b * vy, out=vals)
    if has_ray:
        vals[b > 0] = np.inf
    return vals


def _count_le(vals, garr):
    """How many of vals are <= each grid point (sorts vals in place)."""
    vals.sort()
    return np.searchsorted(vals, garr, side="right")


def sample_vw(model: LimitModel, seed):
    """One draw of the limit variable; math.inf on the unbounded branch."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return float(sample_vw_batch(model, rng, 1)[0])


def vw_from_z(model: LimitModel, z):
    """Evaluate the limit variable at an explicit normal vector (for checks)."""
    z = sorted(float(v) for v in z)
    zbar = sum(z) / len(z)
    a_gain, b_lift = z[-1] - zbar, zbar - z[-2]
    if model.has_ray and b_lift > 0:
        return math.inf
    return max(float(vx) * a_gain + float(vy) * b_lift for vx, vy in model.scaled_vertices)


# --------------------------------------------------------------------- #
# Curve estimation
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class GwCurve:
    grid: tuple
    g_hat: tuple
    ci_half_width: tuple
    samples: int
    plateau: float


def _seed_tuple(seed) -> tuple:
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


def _wilson_half_width(p: float, n: int) -> float:
    z = Z95
    return z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)


def isotonic(values):
    """Pool-adjacent-violators for an equal-weight sequence."""
    blocks = []
    for v in values:
        s, c = float(v), 1
        while blocks and blocks[-1][0] * c > s * blocks[-1][1]:
            ps, pc = blocks.pop()
            s += ps
            c += pc
        blocks.append((s, c))
    out = []
    for s, c in blocks:
        out.extend([s / c] * c)
    return out


def resolve_threads(threads=None) -> int:
    """threads, else COALITION_LP_THREADS, else the CPUs usable here; a count below 1 is refused."""
    import os

    if threads is not None:
        threads = int(threads)
        if threads < 1:
            raise InvalidInput(f"threads must be at least 1, got {threads}")
        return threads
    env = os.environ.get("COALITION_LP_THREADS")
    if env:
        if not env.strip().isdigit() or int(env) < 1:
            raise InvalidInput(f"COALITION_LP_THREADS must be a positive integer, got {env!r}")
        return int(env)
    usable = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return len(usable(0)) if usable else os.cpu_count() or 1


def _chunked_sum(samples: int, seed, draw, threads):
    """Sum draw(rng, size) over fixed chunks of `samples`, in chunk order.

    Chunk i draws from SeedSequence((*seed, i)), so the total does not
    depend on how many worker threads run the chunks.
    """
    base = _seed_tuple(seed)
    sizes = [CHUNK] * (samples // CHUNK)
    if samples % CHUNK:
        sizes.append(samples % CHUNK)

    def one_chunk(idx, size):
        return draw(np.random.default_rng(np.random.SeedSequence(base + (idx,))), size)

    workers = min(resolve_threads(threads), len(sizes))
    if workers <= 1:
        results = list(map(one_chunk, range(len(sizes)), sizes))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_chunk, range(len(sizes)), sizes))
    return sum(results[1:], results[0])


def gw_curve(model: LimitModel, grid, samples: int, seed, threads=None) -> GwCurve:
    """Monte Carlo estimate of g_w on the grid, with 95% Wilson half-widths."""
    grid = [float(v) for v in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be non-decreasing")
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples for a stable curve")
    garr = np.asarray(grid)

    def draw(rng, size):
        # the last entry counts the finite draws
        vals = sample_vw_batch(model, rng, size)
        return np.append(_count_le(vals, garr), np.isfinite(vals).sum())

    total = _chunked_sum(samples, seed, draw, threads)
    counts, finite = total[:-1], int(total[-1])
    g = isotonic(counts / samples)
    ci = tuple(_wilson_half_width(p, samples) for p in g)
    return GwCurve(tuple(grid), tuple(g), ci, samples, finite / samples)


# Both CSV formats are one `# key=value ...` header line, the column row and
# the data rows.  A format lists its header fields and its columns as (name,
# type); the type sets how a value is written and what a header value matches.
_SPEC = {str: "", int: "", float: ".6f"}
_PATTERN = {str: r"\S+", int: r"-?\d+", float: r"[\d.eE+-]+"}
_CURVE_HEADER = (("rule", str), ("m", int), ("seed", int), ("samples", int), ("plateau", float))
_CURVE_COLUMNS = (("v", float), ("g_hat", float), ("ci_half_width", float), ("samples", int))


def _cells(fields, values) -> list:
    return [format(v, _SPEC[kind]) for (_, kind), v in zip(fields, values)]


def _to_csv(header, columns, meta, rows) -> str:
    pairs = (f"{name}={v}" for (name, _), v in zip(header, _cells(header, meta)))
    lines = ["# " + " ".join(pairs), ",".join(name for name, _ in columns)]
    lines += [",".join(_cells(columns, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _from_csv(text: str, what: str, header, columns):
    """Parse one of the CSV formats; returns (meta dict, rows of typed values)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    pattern = r"#\s*" + r"\s+".join(f"{name}=({_PATTERN[kind]})" for name, kind in header)
    found = re.match(pattern, lines[0]) if lines else None
    if not found:
        raise ValueError(f"{what} CSV lacks the metadata header")
    meta = {name: kind(v) for (name, kind), v in zip(header, found.groups())}
    if len(lines) < 2 or lines[1].strip() != ",".join(name for name, _ in columns):
        raise ValueError(f"unexpected {what} CSV columns")
    rows = []
    for ln in lines[2:]:
        # strict: a row with too few or too many fields raises ValueError
        rows.append([kind(c) for (_, kind), c in zip(columns, ln.split(","), strict=True)])
    return meta, rows


def curve_to_csv(curve: GwCurve, rule_label: str, m: int, seed) -> str:
    meta = (rule_label, m, _seed_tuple(seed)[0], curve.samples, curve.plateau)
    rows = [(*vgh, curve.samples) for vgh in zip(curve.grid, curve.g_hat, curve.ci_half_width)]
    return _to_csv(_CURVE_HEADER, _CURVE_COLUMNS, meta, rows)


def curve_from_csv(text: str):
    """Parse a curve CSV; returns (meta dict, GwCurve)."""
    meta, rows = _from_csv(text, "curve", _CURVE_HEADER, _CURVE_COLUMNS)
    grid, g, ci = (tuple(row[j] for row in rows) for j in range(3))
    return meta, GwCurve(grid, g, ci, meta["samples"], meta["plateau"])


def gap_cdf(x, m: int):
    """P(top-two gap of m iid standard normals <= x), by quadrature.

    The tail is m * integral of phi(s) * Phi(s - x)^(m-1) ds: the maximum
    sits at s and the other m-1 draws stay below s - x.  For a rule with a
    coefficient form, g_w(v) = gap_cdf(v / c_w, m) exactly, which makes
    this an independent check on the Monte Carlo curves.
    """
    from scipy.special import ndtr

    s = np.linspace(-12.0, 12.0, 20001)
    phi = np.exp(-0.5 * s * s) / math.sqrt(2 * math.pi)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(xs.shape)
    for i, xi in enumerate(xs):
        out[i] = 1.0 - m * np.trapezoid(phi * ndtr(s - xi) ** (m - 1), s)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def plateau_probability(m: int, samples: int = 1_000_000, seed=0, threads=None):
    """P(the second-largest of m iid normals falls below their mean), with CI.

    This is the limiting probability that an anti-plurality election is not
    manipulable by any coalition.
    """
    if m < 3:
        raise ValueError("need m >= 3")

    def draw(rng, size):
        _, second, zbar = _top_two_mean(rng, size, m)
        return int((second < zbar).sum())

    p = _chunked_sum(samples, seed, draw, threads) / samples
    return p, _wilson_half_width(p, samples)


# --------------------------------------------------------------------- #
# Dominance
# --------------------------------------------------------------------- #

class Verdict(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INCOMPARABLE = "incomparable"
    INDISTINGUISHABLE = "indistinguishable"


@dataclass(frozen=True)
class DominanceReport:
    verdict: Verdict
    method: str
    coefficient_a: float | None
    coefficient_b: float | None
    notes: str


DEFAULT_GRID = tuple(round(0.05 * i, 10) for i in range(51))


def dominates(
    rule_a: ScoreVector,
    rule_b: ScoreVector,
    grid=None,
    samples: int = 200_000,
    seed=0,
    threads=None,
) -> DominanceReport:
    """Decide whether rule_a is everywhere (weakly) less manipulable than rule_b.

    Analytic routes: two coefficient-form rules compare exactly by c_w; the
    anti-plurality shape compares against any bounded rule through its
    diagonal coefficient (equal or larger means anti-plurality wins
    pathwise, smaller leaves the two curves crossing).  Everything else is
    settled by CI-separated Monte Carlo curves on the grid.
    """
    if rule_a.m != rule_b.m:
        raise ValueError("dominance only compares rules on the same candidate set")
    if rule_a.weights == rule_b.weights:
        return DominanceReport(Verdict.INDISTINGUISHABLE, "identical", None, None, "same rule")

    a = limit_model(rule_a)
    b = limit_model(rule_b)

    if a.c_w is not None and b.c_w is not None:
        if a.diag_coeff_sq > b.diag_coeff_sq:
            verdict = Verdict.DOMINATES
        elif a.diag_coeff_sq < b.diag_coeff_sq:
            verdict = Verdict.DOMINATED_BY
        else:
            verdict = Verdict.INDISTINGUISHABLE
        return DominanceReport(
            verdict,
            "analytic-coefficient",
            a.c_w,
            b.c_w,
            "both curves are the top-two-gap law rescaled by the coefficient; "
            "the larger coefficient is everywhere less manipulable",
        )

    if a.has_ray != b.has_ray:
        ray_model, flat_model = (a, b) if a.has_ray else (b, a)
        ray_wins = flat_model.diag_coeff_sq <= ray_model.diag_coeff_sq
        if ray_wins:
            verdict = Verdict.DOMINATES if a.has_ray else Verdict.DOMINATED_BY
            notes = (
                "the unbounded rule matches or beats the other pathwise: equal-or-larger "
                "diagonal coefficient where the value is finite, infinite value elsewhere"
            )
        else:
            verdict = Verdict.INCOMPARABLE
            notes = (
                "the bounded rule is less manipulable by small coalitions (larger diagonal "
                "coefficient) but its curve reaches 1 while the unbounded rule plateaus below 1; "
                "no rule with a full-mass curve can dominate one with an unreachable branch"
            )
        return DominanceReport(
            verdict,
            "analytic-plateau",
            math.sqrt(float(a.diag_coeff_sq)),
            math.sqrt(float(b.diag_coeff_sq)),
            notes,
        )

    if grid is None:
        grid = DEFAULT_GRID
    if len(grid) < 20:
        raise GridTooCoarse(f"need at least 20 grid points, got {len(grid)}")
    base = _seed_tuple(seed)
    curve_a = gw_curve(a, grid, samples, base + (271,), threads)
    curve_b = gw_curve(b, grid, samples, base + (577,), threads)
    below = above = 0
    for ga, ha, gb, hb in zip(curve_a.g_hat, curve_a.ci_half_width, curve_b.g_hat, curve_b.ci_half_width):
        if ga + ha < gb - hb:
            below += 1
        elif ga - ha > gb + hb:
            above += 1
    if below and not above:
        verdict = Verdict.DOMINATES
    elif above and not below:
        verdict = Verdict.DOMINATED_BY
    elif above and below:
        verdict = Verdict.INCOMPARABLE
    else:
        verdict = Verdict.INDISTINGUISHABLE
    return DominanceReport(
        verdict,
        "monte-carlo",
        None,
        None,
        f"CI-separated at {below} grid points below and {above} above "
        f"({samples} samples per rule)",
    )


# --------------------------------------------------------------------- #
# Finite-n convergence
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ConvergencePoint:
    n: int
    ks: float
    trials_used: int
    unreachable_fraction: float


_CONV_HEADER = (("rule", str), ("m", int), ("seed", int), ("trials", int))
_CONV_COLUMNS = (("n", int), ("ks", float), ("trials_used", int), ("unreachable_fraction", float))


def convergence_to_csv(points, rule_label: str, m: int, seed, trials: int) -> str:
    meta = (rule_label, m, _seed_tuple(seed)[0], trials)
    rows = [(p.n, p.ks, p.trials_used, p.unreachable_fraction) for p in points]
    return _to_csv(_CONV_HEADER, _CONV_COLUMNS, meta, rows)


def convergence_from_csv(text: str):
    meta, rows = _from_csv(text, "convergence", _CONV_HEADER, _CONV_COLUMNS)
    return meta, [ConvergencePoint(*row) for row in rows]


def convergence_experiment(
    rule: ScoreVector,
    n_list,
    trials: int,
    seed=0,
    grid=None,
    limit_samples: int = 1_000_000,
    threads=None,
):
    """Compare finite-n laws of q_dual/sqrt(n) with the limit curve.

    For each n, draws IC profiles, skips ties for first place, evaluates the
    two-variable dual on the margins, and reports the sup distance between
    the empirical CDF on the grid and the Monte Carlo limit curve.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    _check_m(rule.m)  # the finite-n profiles enumerate all m! types
    model = limit_model(rule)
    if grid is None:
        grid = DEFAULT_GRID
    grid = [float(v) for v in grid]
    limit = gw_curve(model, grid, limit_samples, seed, threads)
    garr = np.asarray(grid)
    verts = np.array([[float(x), float(y)] for x, y in model.polytope.vertices])
    wbar = float(rule.mean)
    out = []
    for j, n in enumerate(n_list):
        rng = np.random.default_rng(np.random.SeedSequence(_seed_tuple(seed) + (7919, j)))
        used = 0
        unreachable = 0
        counts = np.zeros(len(grid), dtype=np.int64)
        for done in range(0, trials, 200_000):
            scores = sample_scoreboards(n, rule, min(trials - done, 200_000), rng)
            scores.sort(axis=1)
            top, second = scores[:, -1], scores[:, -2]
            strict = top - second > 1e-9
            used += int(strict.sum())
            a_margin, b_deficit = top[strict] - n * wbar, n * wbar - second[strict]
            q = _vertex_max(a_margin, b_deficit, verts, model.has_ray)
            unreachable += int(np.isinf(q).sum())
            counts += _count_le(q / math.sqrt(n), garr)
        ks = float(np.max(np.abs(counts / used - np.asarray(limit.g_hat)))) if used else math.nan
        out.append(ConvergencePoint(int(n), ks, used, unreachable / used if used else math.nan))
    return out
