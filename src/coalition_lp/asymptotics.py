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
and are reproducible for a fixed seed.  The chunks run on the worker pool
through _in_order; a convergence experiment passes it its electorate sizes
(each seeded on its own) and then its limit curve's chunks, as one list.
Memory is bounded by a block or a batch, not by the sample count: a chunk
draws, sorts and counts its limit draws one BLOCK-row block at a time, in
one scratch array that each thread allocates once, and each electorate size
draws its profiles in batches of CELLS // m! profiles.  Their scores are
exact integer sums rounded once (sample_scoreboards), so no cut of the
blocks or the batches moves a bit.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .election import (
    MAX_CANDIDATES, InvalidInput, ScoreVector, _check_m, _check_n, sample_scoreboards,
)
from .reduction import Polytope2D, cone_optimal_vertices, mw_polytope

CHUNK = 1 << 18
# Rows drawn, sorted and counted at once: the m columns of a block stay in
# cache.  A block's normals and columns live in the thread's scratch array
# (_block_scratch), so no block allocates more than a few 64 KB vectors and no
# chunk holds an array of its own size.  No output bit depends on BLOCK.
BLOCK = 1 << 13
# Ballot-type counts a finite-n batch draws at once: 512 KB of int64.  No
# output bit depends on it (the scores are exact sums).  Freeing an array
# lifts glibc's mmap and trim thresholds to its size, and every arena then
# keeps that much in free pages.  Now that no curve chunk frees a 2 MB array
# they stay low, and later curves still reuse their pages; at 3 << 17 counts
# the freed batches kept peak RSS ~7 MB higher.
CELLS = 1 << 16
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
    it ties a dot the dot gives the same value.  The vertex max runs block by
    block, so its temporaries are BLOCK rows long whatever `size` is.
    """
    dots = model.scaled_vertices[list(model.dot_rows)]
    out = np.empty(size)
    for lo, (top, second, zbar) in zip(range(0, size, BLOCK), _top_two_mean(rng, size, model.m)):
        out[lo:lo + len(top)] = _vertex_max(top - zbar, zbar - second, dots, model.has_ray)
    return out


_SCRATCH = threading.local()


def _block_scratch():
    """This thread's block scratch: one array of 2 * BLOCK * (MAX_CANDIDATES + 1) floats.

    It is allocated once per thread and serves every m <= MAX_CANDIDATES, as
    two views: a flat one for a block's (rows, m) normals, and MAX_CANDIDATES + 2
    BLOCK-long rows for its m columns, the network's spare column and the mean.
    """
    views = getattr(_SCRATCH, "views", None)
    if views is None or views[1].shape[1] != BLOCK:
        buf = np.empty(2 * BLOCK * (MAX_CANDIDATES + 1))
        split = MAX_CANDIDATES * BLOCK
        views = _SCRATCH.views = buf[:split], buf[split:].reshape(-1, BLOCK)
    return views


def _top_two_mean(rng, size, m):
    """Yield (largest, second largest, mean) of each BLOCK-row block of `size` draws of m normals.

    Joined, they are bit-equal to z[:, -1], z[:, -2] and z.mean(axis=1) of one
    sorted (size, m) draw: the blocks consume the same stream, and a sorting
    network orders each block's columns (past MAX_CANDIDATES numpy sorts and
    averages each block).  Up to MAX_CANDIDATES the three are views of the
    thread's scratch array (_block_scratch): they hold one block's values until
    the thread draws its next block, here or in any other generator, so a
    caller uses or copies them before then.
    """
    if m > MAX_CANDIDATES:
        for lo in range(0, size, BLOCK):
            z = rng.standard_normal((min(BLOCK, size - lo), m))
            z.sort(axis=1)
            yield z[:, -1], z[:, -2], z.mean(axis=1)
        return
    network = _merge_exchange(m)
    for lo in range(0, size, BLOCK):
        rows = min(BLOCK, size - lo)
        normals, slots = _block_scratch()
        z = normals[:rows * m].reshape(rows, m)
        rng.standard_normal(out=z)
        columns = slots[:m + 2, :rows]
        np.copyto(columns[:m], z.T)
        c, spare, zbar = list(columns[:m]), columns[m], columns[m + 1]
        for i, j in network:
            np.minimum(c[i], c[j], out=spare)
            np.maximum(c[i], c[j], out=c[j])
            c[i], spare = spare, c[i]
        # the bytes equal z.mean(axis=1) only in numpy's order of a row sum:
        # left to right below 8 values, a pairwise tree at 8, whose last pair
        # sum goes to c[0], a column that is not yielded
        np.add(c[0], c[1], out=zbar)
        if m < 8:
            for col in c[2:]:
                zbar += col
        else:
            zbar += np.add(c[2], c[3], out=spare)
            np.add(c[4], c[5], out=spare)
            spare += np.add(c[6], c[7], out=c[0])
            zbar += spare
        zbar /= m
        yield c[-1], c[-2], zbar


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


def _in_order(threads, tasks) -> list:
    """[task() for task in tasks], run on up to `threads` worker threads."""
    workers = min(resolve_threads(threads), len(tasks))
    if workers <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: task(), tasks))


def _chunk_tasks(samples: int, seed, draw) -> list:
    """One task per fixed chunk of `samples`, in chunk order, returning draw(rng, size).

    Chunk i draws from SeedSequence((*seed, i)), so the sum of the results
    does not depend on how many worker threads run the tasks.  A sample
    count below 1 is refused, for every sampler that chunks through here.
    """
    if samples < 1:
        raise InvalidInput(f"need at least one sample, got {samples}")
    base = _seed_tuple(seed)
    sizes = [CHUNK] * (samples // CHUNK) + [samples % CHUNK] * bool(samples % CHUNK)

    def one_chunk(idx, size):
        return draw(np.random.default_rng(np.random.SeedSequence(base + (idx,))), size)

    return [functools.partial(one_chunk, idx, size) for idx, size in enumerate(sizes)]


def _curve_tasks(model: LimitModel, grid, samples: int, seed):
    """(tasks, finish): gw_curve's chunk tasks, and finish(their results) -> the GwCurve.

    The grid and sample count are checked here, before any task runs.
    """
    grid = [float(v) for v in grid]
    if bad := [v for v in grid if not math.isfinite(v)]:
        raise InvalidInput(f"grid points must be finite, got {bad[0]}")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise InvalidInput("grid must be non-decreasing")
    if samples < 10_000:
        raise InvalidInput("need at least 10^4 samples for a stable curve")
    # the largest float closes the grid: the draws up to it are the finite ones
    garr = np.append(grid, np.finfo(float).max)

    def draw(rng, size):
        # each block is counted as it is drawn; the last entry counts the finite draws
        counts = np.zeros(len(garr), dtype=np.int64)
        for lo in range(0, size, BLOCK):
            counts += _count_le(sample_vw_batch(model, rng, min(BLOCK, size - lo)), garr)
        return counts

    def finish(results):
        total = sum(results)
        counts, finite = total[:-1], int(total[-1])
        g = isotonic(counts / samples)
        ci = tuple(_wilson_half_width(p, samples) for p in g)
        return GwCurve(tuple(grid), tuple(g), ci, samples, finite / samples)

    return _chunk_tasks(samples, seed, draw), finish


def gw_curve(model: LimitModel, grid, samples: int, seed, threads=None) -> GwCurve:
    """Monte Carlo estimate of g_w on the grid, with 95% Wilson half-widths."""
    tasks, finish = _curve_tasks(model, grid, samples, seed)
    return finish(_in_order(threads, tasks))


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
        raise InvalidInput(f"{what} CSV lacks the metadata header")
    meta = {name: kind(v) for (name, kind), v in zip(header, found.groups())}
    if len(lines) < 2 or lines[1].strip() != ",".join(name for name, _ in columns):
        raise InvalidInput(f"unexpected {what} CSV columns")
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

    The tail is m * integral of phi(t + x) * Phi(t)^(m-1) dt: the maximum
    sits at t + x and the other m-1 draws stay below t.  Phi is taken once
    per call on the fixed t grid, so each x costs one exp.  For a rule with
    a coefficient form, g_w(v) = gap_cdf(v / c_w, m) exactly, which makes
    this an independent check on the Monte Carlo curves.
    """
    t = np.linspace(-12.0, 12.0, 20001)
    below = np.fromiter((math.erfc(-v / math.sqrt(2)) / 2 for v in t.tolist()), float, len(t))
    weight = below ** (m - 1) * (m / math.sqrt(2 * math.pi))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(xs.shape)
    for i, xi in enumerate(xs):
        u = t + xi
        out[i] = 1.0 - np.trapezoid(np.exp(-0.5 * u * u) * weight, t)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def plateau_probability(m: int, samples: int = 1_000_000, seed=0, threads=None):
    """P(the second-largest of m iid normals falls below their mean), with CI.

    This is the limiting probability that an anti-plurality election is not
    manipulable by any coalition.
    """
    if m < 3:
        raise InvalidInput("need m >= 3")

    def draw(rng, size):
        return sum(int((second < zbar).sum()) for _, second, zbar in _top_two_mean(rng, size, m))

    p = sum(_in_order(threads, _chunk_tasks(samples, seed, draw))) / samples
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


def _verdict(wins, losses) -> Verdict:
    """rule_a's verdict from whether it is ever less manipulable (wins) and ever more (losses)."""
    if wins:
        return Verdict.INCOMPARABLE if losses else Verdict.DOMINATES
    return Verdict.DOMINATED_BY if losses else Verdict.INDISTINGUISHABLE


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
        raise InvalidInput("dominance only compares rules on the same candidate set")
    if rule_a.weights == rule_b.weights:
        return DominanceReport(Verdict.INDISTINGUISHABLE, "identical", None, None, "same rule")

    a = limit_model(rule_a)
    b = limit_model(rule_b)

    if a.c_w is not None and b.c_w is not None:
        return DominanceReport(
            _verdict(a.diag_coeff_sq > b.diag_coeff_sq, a.diag_coeff_sq < b.diag_coeff_sq),
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
    return DominanceReport(
        _verdict(below, above),
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
    the empirical CDF on the grid and the Monte Carlo limit curve.  The n
    values, each drawing its profiles in batches of CELLS // m! profiles,
    and then the limit curve's chunks run as one list of tasks on up to
    `threads` workers, so the curve takes the worker the first finished
    size frees.
    """
    if trials < 1:
        raise InvalidInput(f"need at least one trial, got {trials}")
    _check_m(rule.m)  # the finite-n profiles enumerate all m! types
    n_list = list(n_list)
    for n in n_list:
        _check_n(n)
    model = limit_model(rule)
    grid = [float(v) for v in (DEFAULT_GRID if grid is None else grid)]
    curve_tasks, finish = _curve_tasks(model, grid, limit_samples, seed)
    garr = np.asarray(grid)
    verts = np.array([[float(x), float(y)] for x, y in model.polytope.vertices])
    wbar = float(rule.mean)
    rows = CELLS // math.factorial(rule.m)

    def one_size(j, n):
        rng = np.random.default_rng(np.random.SeedSequence(_seed_tuple(seed) + (7919, j)))
        used = unreachable = 0
        counts = np.zeros(len(grid), dtype=np.int64)
        for lo in range(0, trials, rows):
            scores = sample_scoreboards(n, rule, min(rows, trials - lo), rng)
            scores.sort(axis=1)
            top, second = scores[:, -1], scores[:, -2]
            strict = top - second > 1e-9
            used += int(strict.sum())
            a_margin, b_deficit = top[strict] - n * wbar, n * wbar - second[strict]
            q = _vertex_max(a_margin, b_deficit, verts, model.has_ray)
            unreachable += int(np.isinf(q).sum())
            counts += _count_le(q / math.sqrt(n), garr)
        return counts, used, unreachable

    sizes = [functools.partial(one_size, j, n) for j, n in enumerate(n_list)]
    results = _in_order(threads, sizes + curve_tasks)
    g_hat = np.asarray(finish(results[len(sizes):]).g_hat)
    return [
        ConvergencePoint(int(n), float(np.max(np.abs(counts / used - g_hat))) if used else math.nan,
                         used, unreachable / used if used else math.nan)
        for n, (counts, used, unreachable) in zip(n_list, results)
    ]
