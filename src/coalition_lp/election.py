"""Positional elections: score vectors, profiles, scoreboards, and sampling.

Candidates are integers 0..m-1.  A voter type is a tuple giving a strict
ranking of all candidates, best first.  A positional rule assigns weight
``w[i]`` to the candidate in position i; rules are kept in normalized form
(top weight 1, bottom weight 0, non-increasing).

Arithmetic is exact (fractions.Fraction) whenever every weight is rational,
which is the default for the named rules.  Float score vectors are supported
with a tie tolerance of TIE_TOL.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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

    @property
    def is_rational(self) -> bool:
        return all(_is_exact(w) for w in self.weights)

    @property
    def mean(self):
        if self.is_rational:
            return sum((Fraction(w) for w in self.weights), Fraction(0)) / self.m
        return sum(self.weights) / self.m

    @property
    def variance(self):
        """Per-coordinate score variance: sum(w_i^2)/m - mean^2."""
        if self.is_rational:
            sq = Fraction(sum(Fraction(w) ** 2 for w in self.weights), self.m)
        else:
            sq = sum(w * w for w in self.weights) / self.m
        return sq - self.mean**2

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.variance))

    @property
    def has_unbounded_direction(self) -> bool:
        """True when the second-to-last weight is 1 (the anti-plurality shape)."""
        return _close(self.weights[-2], 1)

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
    return normalize([Fraction(m - 1 - i, m - 1) for i in range(m)])


def k_approval(m: int, k: int) -> ScoreVector:
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must be in 1..{m - 1}, got {k}")
    return normalize([Fraction(1)] * k + [Fraction(0)] * (m - k))


def plurality(m: int) -> ScoreVector:
    return k_approval(m, 1)


def antiplurality(m: int) -> ScoreVector:
    return k_approval(m, m - 1)


def three_candidate(p) -> ScoreVector:
    """The one-parameter family (1, 1-p, 0) on three candidates, 0 < p <= 1."""
    p = Fraction(p) if _is_exact(p) or isinstance(p, str) else float(p)
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return normalize([1, 1 - p, 0])


def parse_rule(text: str, m: int | None = None) -> ScoreVector:
    """Parse a rule string: borda | plurality | antiplurality | approval:<k> | weights:<w1,...,wm>."""
    text = text.strip()
    if text == "borda" or text == "plurality" or text == "antiplurality" or text.startswith("approval:"):
        if m is None:
            raise ValueError(f"rule '{text}' needs a candidate count")
        if text == "borda":
            return borda(m)
        if text == "plurality":
            return plurality(m)
        if text == "antiplurality":
            return antiplurality(m)
        return k_approval(m, int(text.split(":", 1)[1]))
    if text.startswith("weights:"):
        parts = text.split(":", 1)[1].split(",")
        weights = []
        for part in parts:
            try:
                weights.append(Fraction(part.strip()))
            except ValueError:
                weights.append(float(part))
        if m is not None and len(weights) != m:
            raise ValueError(f"rule has {len(weights)} weights but m={m}")
        return normalize(weights)
    raise ValueError(f"unrecognized rule: {text!r}")


# --------------------------------------------------------------------- #
# Voter types and profiles
# --------------------------------------------------------------------- #

def all_rankings(m: int) -> tuple:
    """All voter types for m candidates, in lexicographic order."""
    if m < 3:
        raise TooFewCandidates(f"need m >= 3, got {m}")
    if m > MAX_CANDIDATES:
        raise MTooLarge(f"m={m} exceeds the exhaustive-enumeration limit {MAX_CANDIDATES}")
    return tuple(itertools.permutations(range(m)))


def ranking_index(ranking, m: int) -> int:
    """Lexicographic rank of a permutation among all m! voter types."""
    ranking = tuple(ranking)
    if sorted(ranking) != list(range(m)):
        raise ValueError(f"not a permutation of 0..{m - 1}: {ranking}")
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
        if self.m < 3:
            raise TooFewCandidates(f"need m >= 3, got {self.m}")
        if self.m > MAX_CANDIDATES:
            raise MTooLarge(f"m={self.m} exceeds the limit {MAX_CANDIDATES}")
        if len(self.counts) != math.factorial(self.m):
            raise ValueError("counts must have length m!")
        if any(c < 0 or c != int(c) for c in self.counts):
            raise ValueError("counts must be non-negative integers")
        if sum(self.counts) < 1:
            raise ValueError("profile needs at least one voter")

    @classmethod
    def from_counts(cls, m: int, counts) -> "Profile":
        """Build from a mapping {ranking tuple: count}; missing types count 0."""
        dense = [0] * math.factorial(m)
        for ranking, c in counts.items():
            dense[ranking_index(ranking, m)] += int(c)
        return cls(m, tuple(dense))

    @property
    def n(self) -> int:
        return sum(self.counts)

    def items(self):
        """Yield (ranking, count) for every type with a positive count."""
        for ranking, c in zip(all_rankings(self.m), self.counts):
            if c:
                yield ranking, c

    def __add__(self, other: "Profile") -> "Profile":
        if self.m != other.m:
            raise ValueError("profiles must share m")
        return Profile(self.m, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def to_json(self) -> str:
        votes = [{"ranking": list(r), "count": c} for r, c in self.items()]
        return json.dumps({"m": self.m, "votes": votes})

    @classmethod
    def from_json(cls, text: str) -> "Profile":
        data = json.loads(text)
        if not isinstance(data, dict) or "m" not in data or "votes" not in data:
            raise ValueError("profile JSON needs keys 'm' and 'votes'")
        m = data["m"]
        if not isinstance(m, int):
            raise ValueError("'m' must be an integer")
        counts = {}
        for vote in data["votes"]:
            ranking = tuple(vote["ranking"])
            counts[ranking] = counts.get(ranking, 0) + vote["count"]
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
        return tuple(sorted(range(self.m), key=lambda c: (-self.scores[c], c)))

    @property
    def mean(self):
        """The common mean score n * wbar."""
        if all(_is_exact(s) for s in self.scores):
            return Fraction(sum(self.scores), self.m)
        return sum(self.scores) / self.m


def scoreboard(profile: Profile, rule: ScoreVector) -> Scoreboard:
    if rule.m != profile.m:
        raise ValueError("rule and profile must share m")
    zero = Fraction(0) if rule.is_rational else 0.0
    scores = [zero] * profile.m
    for ranking, c in profile.items():
        for pos, cand in enumerate(ranking):
            scores[cand] += c * rule.weights[pos]
    return Scoreboard(tuple(scores), profile.n)


def top_two(board: Scoreboard):
    """Return (winner, runner-up, strict) where strict means no tie for first."""
    order = board.order
    a, b = order[0], order[1]
    strict = not _close(board.scores[a], board.scores[b])
    return a, b, strict


def score_matrix(rule: ScoreVector, dtype=float) -> np.ndarray:
    """Dense (m!, m) matrix: entry [t, c] is the score ballot type t gives candidate c."""
    types = all_rankings(rule.m)
    out = np.empty((len(types), rule.m), dtype=dtype)
    for i, ranking in enumerate(types):
        for pos, cand in enumerate(ranking):
            out[i, cand] = float(rule.weights[pos])
    return out


# --------------------------------------------------------------------- #
# Impartial-culture sampling
# --------------------------------------------------------------------- #

def sample_ic(n: int, m: int, seed) -> Profile:
    """Draw one impartial-culture profile: n voters iid uniform over the m! types."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    fact = len(all_rankings(m))  # validates the m range
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.multinomial(n, [1.0 / fact] * fact)
    return Profile(m, tuple(int(c) for c in counts))


def sample_scoreboards(n: int, rule: ScoreVector, trials: int, rng) -> np.ndarray:
    """Vectorized IC sampling: (trials, m) float array of candidate scores."""
    fact = len(all_rankings(rule.m))
    # one expression, so the int64 counts are freed before the product is formed
    return rng.multinomial(n, [1.0 / fact] * fact, size=trials).astype(float) @ score_matrix(rule)
