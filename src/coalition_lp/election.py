"""Positional elections: score vectors, profiles, scoreboards, and sampling.

Candidates are integers 0..m-1.  A voter type is a tuple giving a strict
ranking of all candidates, best first.  A positional rule assigns weight
``w[i]`` to the candidate in position i; rules are kept in normalized form
(top weight 1, bottom weight 0, non-increasing).

Arithmetic is exact (fractions.Fraction) whenever every weight is rational,
which is the default for the named rules.  A rule given as floats has its
weights read exactly (integer_weights, by lp.lcd_ints, and
sample_scoreboards, mean, variance) except on the routes that stay float:
its scoreboard sums the float weights, its ties are tested to within
TIE_TOL, and its LP values are float solves.  A rational scoreboard is the
profile's position counts (Profile.positions) times integer_weights; a
rule keeps no per-type score table but the sampling one (_score_limbs).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import TYPE_CHECKING

from .lp import lcd_ints

if TYPE_CHECKING:
    import numpy as np  # imported where it is used, by the sampling functions alone

TIE_TOL = 1e-9

MAX_CANDIDATES = 8  # m! grows too fast for exhaustive type enumeration past this


class InvalidInput(ValueError):
    """Base class of the errors that reject a malformed or out-of-range input."""


class TooFewCandidates(InvalidInput):
    pass


class MTooLarge(InvalidInput):
    pass


class NotMonotone(InvalidInput):
    pass


class ConstantVector(InvalidInput):
    pass


def _is_int(value) -> bool:
    """A JSON integer: int but not bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _close(x, y) -> bool:
    """Equality up to TIE_TOL for floats, exact otherwise."""
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= TIE_TOL
    return x == y


@dataclass(frozen=True)
class ScoreVector:
    """A normalized positional score vector."""

    weights: tuple

    @property
    def m(self) -> int:
        return len(self.weights)

    @functools.cached_property  # kept in the instance's __dict__, which eq, hash and replace() skip
    def is_rational(self) -> bool:
        return all(_is_exact(w) for w in self.weights)

    @property
    def mean(self) -> Fraction:
        return sum(map(Fraction, self.weights), Fraction(0)) / self.m

    @property
    def variance(self) -> Fraction:
        """Per-coordinate score variance: sum(w_i^2)/m - mean^2, floats read exactly."""
        return Fraction(sum(Fraction(w) ** 2 for w in self.weights), self.m) - self.mean**2

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.variance))

    @property
    def has_unbounded_direction(self) -> bool:
        """True when the second-to-last weight is 1 (the anti-plurality shape), read exactly."""
        scale, ints = integer_weights(self)
        return ints[-2] == scale

    def __str__(self) -> str:
        return "(" + ", ".join(str(w) for w in self.weights) + ")"


def normalize(raw) -> ScoreVector:
    """Map an arbitrary score vector to normalized form.

    Subtracts the bottom weight and divides by the resulting top weight, so
    w[0] == 1 and w[-1] == 0.  Raises TooFewCandidates for fewer than three
    entries, NotMonotone if the entries increase anywhere, and ConstantVector
    when all entries are equal (no such rule distinguishes candidates).
    """
    w = list(raw)
    if len(w) < 3:
        raise TooFewCandidates(f"need at least 3 weights, got {len(w)}")
    exact = all(_is_exact(x) for x in w)
    if exact:
        w = [Fraction(x) for x in w]
    else:
        w = [float(x) for x in w]
        if not all(math.isfinite(x) for x in w):
            raise InvalidInput("weights must be finite numbers")
    for i in range(len(w) - 1):
        if w[i] < w[i + 1] and not _close(w[i], w[i + 1]):
            raise NotMonotone(f"weights increase at position {i}")
    span = w[0] - w[-1]
    if span == 0 or (not exact and abs(span) <= TIE_TOL):
        raise ConstantVector("all weights equal")
    return ScoreVector(tuple((x - w[-1]) / span for x in w))


def borda(m: int) -> ScoreVector:
    return normalize(list(range(m - 1, -1, -1)))


def k_approval(m: int, k: int) -> ScoreVector:
    if not 1 <= k <= m - 1:
        raise InvalidInput(f"k must be in 1..{m - 1}, got {k}")
    return normalize([Fraction(1)] * k + [Fraction(0)] * (m - k))


def plurality(m: int) -> ScoreVector:
    return k_approval(m, 1)


def antiplurality(m: int) -> ScoreVector:
    return k_approval(m, m - 1)


def three_candidate(p) -> ScoreVector:
    """The one-parameter family (1, 1-p, 0) on three candidates, 0 < p <= 1."""
    try:
        p = Fraction(p) if _is_exact(p) or isinstance(p, str) else float(p)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"p {p!r} is not a number") from None
    if not 0 < p <= 1:
        raise InvalidInput(f"p must be in (0, 1], got {p}")
    return normalize([1, 1 - p, 0])


def _approval(m: int, k: str) -> ScoreVector:
    try:
        k = int(k)
    except ValueError:
        raise InvalidInput(f"approval count {k!r} is not an integer") from None
    return k_approval(m, k)


# the named rules, each a constructor of m; "approval:" takes the text past its colon too
_NAMED_RULES = {"borda": borda, "plurality": plurality, "antiplurality": antiplurality,
                "approval:": _approval}


def parse_rule(text: str, m: int | None = None) -> ScoreVector:
    """Parse a rule string: borda | plurality | antiplurality | approval:<k> | weights:<w1,...,wm>."""
    text = text.strip()
    name, colon, arg = text.partition(":")
    if build := _NAMED_RULES.get(name + colon):
        if m is None:
            raise InvalidInput(f"rule '{text}' needs a candidate count")
        return build(m, arg) if colon else build(m)
    if text.startswith("weights:"):
        weights = []
        for part in map(str.strip, arg.split(",")):
            try:
                weights.append(Fraction(part))
            except ZeroDivisionError:
                raise InvalidInput(f"weight {part!r} has a zero denominator") from None
            except ValueError:
                raise InvalidInput(f"weight {part!r} is not a number") from None
        if m is not None and len(weights) != m:
            raise InvalidInput(f"rule has {len(weights)} weights but m={m}")
        return normalize(weights)
    raise InvalidInput(f"unrecognized rule: {text!r}")


# --------------------------------------------------------------------- #
# Voter types and profiles
# --------------------------------------------------------------------- #

def _check_m(m: int) -> None:
    """Reject a candidate count outside 3..MAX_CANDIDATES before m! is touched."""
    if m < 3:
        raise TooFewCandidates(f"need m >= 3, got {m}")
    if m > MAX_CANDIDATES:
        raise MTooLarge(f"m={m} exceeds the exhaustive-enumeration limit {MAX_CANDIDATES}")


def all_rankings(m: int) -> tuple:
    """All voter types for m candidates, in lexicographic order."""
    _check_m(m)
    return tuple(itertools.permutations(range(m)))


def ranking_index(ranking, m: int) -> int:
    """Lexicographic rank of a permutation among all m! voter types."""
    ranking = tuple(ranking)
    if sorted(ranking) != list(range(m)):
        raise InvalidInput(f"not a permutation of 0..{m - 1}: {ranking}")
    remaining = list(range(m))
    idx = 0
    for pos, cand in enumerate(ranking):
        idx += remaining.index(cand) * math.factorial(m - 1 - pos)
        remaining.remove(cand)
    return idx


@dataclass(frozen=True)
class Profile:
    """A multiset of voters, stored densely: counts[i] voters of all_rankings(m)[i]."""

    m: int
    counts: tuple

    def __post_init__(self):
        _check_m(self.m)
        if len(self.counts) != math.factorial(self.m):
            raise InvalidInput("counts must have length m!")
        if not all(_is_int(c) and c >= 0 for c in self.counts):
            raise InvalidInput("counts must be non-negative integers")
        if sum(self.counts) < 1:
            raise InvalidInput("profile needs at least one voter")

    @classmethod
    def from_counts(cls, m: int, counts) -> "Profile":
        """Build from a mapping {ranking tuple: count}; missing types count 0."""
        _check_m(m)
        dense = [0] * math.factorial(m)
        for ranking, c in counts.items():
            if not _is_int(c):  # 0 + True would pass as the int 1, 0 + "1" as a TypeError
                raise InvalidInput("counts must be non-negative integers")
            dense[ranking_index(ranking, m)] += c
        return cls(m, tuple(dense))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @functools.cached_property  # kept in the instance's __dict__, which eq, hash and replace() skip
    def positions(self) -> tuple:
        """positions[c][p]: how many voters rank candidate c in place p (0 is first)."""
        return tuple(tuple(sum(get(self.counts)) for get in row) for row in _place_index(self.m))

    def items(self):
        """Yield (ranking, count) for every type with a positive count."""
        for ranking, c in zip(all_rankings(self.m), self.counts):
            if c:
                yield ranking, c

    def __add__(self, other: "Profile") -> "Profile":
        if self.m != other.m:
            raise InvalidInput("profiles must share m")
        return Profile(self.m, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def to_json(self) -> str:
        votes = [{"ranking": list(r), "count": c} for r, c in self.items()]
        return json.dumps({"m": self.m, "votes": votes})

    @classmethod
    def from_json(cls, text: str) -> "Profile":
        data = json.loads(text)
        if not isinstance(data, dict) or "m" not in data or "votes" not in data:
            raise InvalidInput("profile JSON needs keys 'm' and 'votes'")
        m, votes = data["m"], data["votes"]
        if not _is_int(m):
            raise InvalidInput("'m' must be an integer")
        if not isinstance(votes, list):
            raise InvalidInput("'votes' must be a list")
        counts = {}
        for vote in votes:
            if not isinstance(vote, dict) or "ranking" not in vote or "count" not in vote:
                raise InvalidInput(f"each vote needs keys 'ranking' and 'count', got {vote!r}")
            ranking, count = vote["ranking"], vote["count"]
            if not isinstance(ranking, list) or not all(map(_is_int, ranking)):
                raise InvalidInput(f"'ranking' must be a list of integers, got {ranking!r}")
            if not _is_int(count) or count < 0:
                raise InvalidInput(f"'count' must be a non-negative integer, got {count!r}")
            counts[tuple(ranking)] = counts.get(tuple(ranking), 0) + count
        return cls.from_counts(m, counts)


# --------------------------------------------------------------------- #
# Scoring
# --------------------------------------------------------------------- #

def sigma(ranking, alpha: int, rule: ScoreVector):
    """Score contributed to candidate alpha by one ballot of the given ranking."""
    return rule.weights[ranking.index(alpha)]


@dataclass(frozen=True)
class Scoreboard:
    scores: tuple
    n: int

    @property
    def m(self) -> int:
        return len(self.scores)

    @property
    def order(self) -> tuple:
        """Candidates sorted by score, best first; ties broken by candidate index."""
        return tuple(sorted(range(self.m), key=self.scores.__getitem__, reverse=True))

    @property
    def mean(self):
        """The common mean score n * wbar."""
        if all(_is_exact(s) for s in self.scores):
            return Fraction(sum(self.scores), self.m)
        return sum(self.scores) / self.m


@functools.lru_cache(maxsize=8)
def _type_maps(m):
    """Each type's rank among all_rankings(m) and its candidates' places (inverse permutation)."""
    types = all_rankings(m)
    return {t: i for i, t in enumerate(types)}, {t: tuple(map(t.index, range(m))) for t in types}


@functools.lru_cache(maxsize=8)
def _place_index(m):
    """index[c][p]: an itemgetter of the counts of the types that rank candidate c in place p."""
    ranks = [[[] for _ in range(m)] for _ in range(m)]
    for i, places in enumerate(_type_maps(m)[1].values()):
        for c, p in enumerate(places):
            ranks[c][p].append(i)
    return tuple(tuple(itemgetter(*row) for row in rows) for rows in ranks)  # (m-1)! >= 2 each


def per_rule(build):
    """Memoize build(rule, *args) in the rule's __dict__, which eq, hash, repr and replace() skip."""
    key = f"{build.__module__}.{build.__qualname__}"

    @functools.wraps(build)
    def tables(rule, *args):
        memo = rule.__dict__.get(key) or rule.__dict__.setdefault(key, {})
        return memo[args] if args in memo else memo.setdefault(args, build(rule, *args))

    return tables


@per_rule
def integer_weights(rule: ScoreVector) -> tuple:
    """(scale, ints): the lcm of the weights' denominators, and w * scale; floats read exactly."""
    ints, scale = lcd_ints(rule.weights)
    return scale, tuple(ints)


@per_rule
def _score_limbs(rule: ScoreVector, count: int, dtype) -> tuple:
    """(width, tables): every type's int scores cut into `count` limbs of `width` bits, high first.

    Each table is an (m!, m) array of `dtype` in column-major order, so a
    count row meets each candidate's column in contiguous memory.
    """
    import numpy as np

    scale, ints = integer_weights(rule)
    places = _type_maps(rule.m)[1].values()
    where = np.fromiter(itertools.chain.from_iterable(places), np.intp, len(places) * rule.m)
    where = np.ascontiguousarray(where.reshape(len(places), rule.m).T)  # [c, t]: c's place in t
    width = -(-scale.bit_length() // count)
    mask = (1 << width) - 1
    return width, tuple(np.array([w >> shift & mask for w in ints], dtype)[where].T
                        for shift in range(width * (count - 1), -1, -width))


def scoreboard(profile: Profile, rule: ScoreVector) -> Scoreboard:
    """Candidate totals: a rational rule's from the profile's position counts, in ints.

    Candidate c scores sum_p w[p] * positions[c][p]: the integer weights'
    dot product over their scale.  A float rule's float weights are added
    over the types with a positive count, in type order.
    """
    if rule.m != profile.m:
        raise InvalidInput("rule and profile must share m")
    m, n, counts = profile.m, profile.n, profile.counts
    if rule.is_rational:
        scale, ints = integer_weights(rule)
        return Scoreboard(tuple(Fraction(sum(map(mul, row, ints)), scale)
                                for row in profile.positions), n)
    weights, scores = rule.weights, [0.0] * m
    for places, c in zip(itertools.compress(_type_maps(m)[1].values(), counts),
                         itertools.compress(counts, counts)):
        for cand, p in enumerate(places):
            scores[cand] += c * weights[p]
    return Scoreboard(tuple(scores), n)


def top_two(board: Scoreboard):
    """Return (winner, runner-up, strict) where strict means no tie for first."""
    order = board.order
    a, b = order[0], order[1]
    strict = not _close(board.scores[a], board.scores[b])
    return a, b, strict


# --------------------------------------------------------------------- #
# Impartial-culture sampling
# --------------------------------------------------------------------- #

def _check_n(n: int) -> None:
    """Reject an electorate size that numpy's multinomial cannot draw: it takes 1 <= n < 2**63."""
    if not 1 <= n < 2**63:
        raise InvalidInput(f"need 1 <= n < 2**63, got {n}")


def sample_ic(n: int, m: int, seed) -> Profile:
    """Draw one impartial-culture profile: n voters iid uniform over the m! types."""
    import numpy as np

    _check_n(n)
    _check_m(m)
    fact = math.factorial(m)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.multinomial(n, [1.0 / fact] * fact)
    return Profile(m, tuple(int(c) for c in counts))


def sample_scoreboards(n: int, rule: ScoreVector, trials: int, rng) -> np.ndarray:
    """Vectorized IC sampling: (trials, m) float array of candidate scores.

    Each score is its exact sum over integer_weights' scale rounded once, as
    float(Fraction(sum, scale)), so it is the same bytes however the
    profiles are batched and on any CPU.  The counts meet the rule's integer
    table limb by limb (_score_limbs), and each limb's sums stay below 2**31
    in int32 (einsum adds those with SIMD) or else below 2**53 in int64,
    where floats hold them exactly.
    """
    import numpy as np

    _check_n(n)
    _check_m(rule.m)
    fact = math.factorial(rule.m)
    scale = integer_weights(rule)[0]
    dtype, cap = (np.int32, 2**31) if n << scale.bit_length() < 2**31 else (np.int64, 2**53)
    widest = max(((cap - 1) // n + 1).bit_length() - 1, 1)  # n * (2**widest - 1) < cap
    width, tables = _score_limbs(rule, -(-scale.bit_length() // widest), dtype)
    counts = rng.multinomial(n, np.full(fact, 1.0 / fact), size=trials).astype(dtype, copy=False)
    sums = [np.einsum("ij,jk->ik", counts, table) for table in tables]
    exact = n < 2**53  # every sum is then below cap, so a float holds it exactly
    if exact and len(sums) == 1:
        return sums[0] / scale  # scale < 2**53 too, so the one division rounds once
    if exact and len(sums) == 2 and scale & (scale - 1) == 0:  # as for every float rule
        return (sums[0] * 2.0**width + sums[1]) / scale  # one rounded add, then exact scaling
    total = sums[0].astype(object)
    for low in sums[1:]:
        total = (total << width) + low.astype(object)
    return (total / scale).astype(float)  # int / int rounds once, past 2**53 too
