"""Scalars, words and combinatorial primitives shared by all chain models.

Exact weights are fractions.Fraction (or int); the float backend uses plain
floats with a fixed comparison tolerance. Every ParamSet keeps its weights
in one table (`ParamTables`), and every formula reads them there: exact
weights as ints over common denominators, so the model walks and
closed-form sweeps multiply ints and each normalizer is one Fraction, and
float weights as themselves over a scale 1; only the last division and the
chain evaluator ask which (`ParamSet.exact`). J rows come from a
per-process cache of int-tuple steps (`_j_step`). The exact numbers a
command prints are ints over one scale, formatted by the command line.
All position arguments follow the 1-based convention of the transition
formulas; the virtual sentinel w_{n+1} = +infinity is handled by the
operations and never stored.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import inf, lcm, prod
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import DegenerateParams

FLOAT_TOL = 1e-12
# bound of each per-process kernel cache; the largest tower `verify` takes replays 4,096 columns
KERNEL_CACHE_SIZE = 1 << 12
# bound of the per-process cache of shape-only results (`_shape_cached`): twice
# the 24 skeletons of one benchmark `verify` pass, so a `solve` pass (12) fits too
SKELETON_CACHE_SIZE = 48


def is_exact(x) -> bool:
    return not isinstance(x, float)


class Word(namedtuple("Word", "letters T")):
    """A state of the word-based chains: letters over {1..T}, checked by the
    constructor; enumerators and walks build legal words through `_make`."""

    __slots__ = ()

    def __new__(cls, letters: tuple[int, ...], T: int):
        if T < 1:
            raise ValueError("alphabet size must be >= 1")
        for x in letters:
            if not 1 <= x <= T:
                raise ValueError(f"letter {x} outside 1..{T}")
        return super().__new__(cls, letters, T)

    @property
    def n(self) -> int:
        return len(self.letters)

    def letter(self, i: int) -> int:
        """1-based access."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} outside 1..{self.n}")
        return self.letters[i - 1]

    def __str__(self):
        return ("" if self.T <= 9 else ".").join(map(str, self.letters))


@dataclass(frozen=True)
class TypeCounts:
    """Ball counts (n_1, ..., n_T), all positive."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or any(c < 1 for c in self.counts):
            raise ValueError("counts must be a nonempty tuple of positive ints")

    @property
    def T(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return sum(self.counts)


class ParamTables(NamedTuple):
    """The weights every formula reads, as Z_k = L z_k, Y_k = L y_k and C_t =
    Lc c_t over the scales L and Lc. Exact weights are ints over common
    denominators: L is the lcm of z's denominators and Lc that of c's (Lc and
    C None without activities). Float or mixed weights are themselves, over
    L = Lc = z_1 ** 0 (C None without activities): 1.0 when z holds a float,
    since ParamSet then stores all of z as floats, else an exact 1."""

    L: int
    Z: tuple
    Y: tuple
    Lc: Optional[int]
    C: Optional[tuple]


def _scaled(values) -> tuple[int, tuple]:
    """(lcm of the denominators, the values times it as ints), read off the
    numerator and denominator that ints and Fractions both carry; `values`
    is read twice, so it is a collection, not an iterator."""
    m = lcm(*(x.denominator for x in values))
    return m, tuple([x.numerator * (m // x.denominator) for x in values])


def _refuse_nan(name: str, weights: tuple) -> None:
    """Raise on the first nan weight, which passes every sign check."""
    k = next((k for k, x in enumerate(weights, 1) if x != x), None)
    if k is not None:
        raise ValueError(f"{name}_{k} is nan")


@dataclass(frozen=True)
class ParamSet:
    """Throw weights z_1..z_m with prefix sums y, plus optional activities c.

    The chain on n balls needs exactly m = n+1 weights (the deepest reachable
    index is n+1); constructors of model matrices enforce that arity. Every
    formula reads the weights through `tables` (ParamTables): ints over
    common denominators when every weight is exact, and `exact` is then
    True; with any float weight the weights themselves over z_1 ** 0 (one
    float in z makes all of z floats, over 1.0), and `exact` is False. Only
    the last division and the evaluator ask `exact`; no model's chain
    builder does. Both belong to the instance: equal sets may differ in
    them (ParamSet((1, 0)) equals ParamSet((1.0, 0.0))), so they take no
    part in equality, hashing or repr.
    """

    z: tuple
    c: Optional[tuple] = None
    y: tuple = field(init=False, compare=False)
    normalized: bool = field(init=False, compare=False)
    tables: ParamTables = field(init=False, compare=False, repr=False)
    exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        z = tuple(self.z)
        if not z:
            raise ValueError("z must be nonempty")
        if any(x < 0 for x in z):
            raise ValueError("throw weights must be nonnegative")
        _refuse_nan("throw weight z", z)
        if not all(map(is_exact, z)):  # one float makes z all floats, so its scale is 1.0
            z = tuple(map(float, z))
        object.__setattr__(self, "z", z)
        ys = []
        acc = z[0] * 0
        for x in z:
            acc = acc + x
            ys.append(acc)
        object.__setattr__(self, "y", tuple(ys))
        total = ys[-1]
        if is_exact(total):
            norm = total == 1
        elif total == inf:
            raise ValueError("the throw weights sum past the float range; scale them down")
        else:
            norm = abs(total - 1) <= FLOAT_TOL
        object.__setattr__(self, "normalized", norm)
        if self.c is not None:
            c = tuple(self.c)
            if any(x <= 0 for x in c):
                raise ValueError("activities must be strictly positive")
            _refuse_nan("activity c", c)
            object.__setattr__(self, "c", c)
        exact = all(map(is_exact, z + (self.c or ())))
        if exact:
            L, Z = _scaled(z)
            Lc, C = _scaled(self.c) if self.c is not None else (None, None)
            tables = ParamTables(L, Z, tuple(accumulate(Z)), Lc, C)
        else:
            one = z[0] ** 0  # 1.0 for float z; exact z with float activities keeps z_1's type
            tables = ParamTables(one, z, self.y, one, self.c)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "exact", exact)

    def z_at(self, i: int):
        if not 1 <= i <= len(self.z):
            raise ValueError(f"z index {i} outside 1..{len(self.z)}")
        return self.z[i - 1]

    def y_at(self, i: int):
        # y_0 = 0 by convention
        if i == 0:
            return self.z[0] * 0
        if not 1 <= i <= len(self.y):
            raise ValueError(f"y index {i} outside 0..{len(self.y)}")
        return self.y[i - 1]

    def require_arity(self, n: int) -> "ParamSet":
        if len(self.z) != n + 1:
            raise ValueError(
                f"need exactly {n + 1} throw weights for {n} balls, got {len(self.z)}"
            )
        return self


def enumerate_multiset_words(counts: TypeCounts) -> list[Word]:
    """All words with letter multiplicities `counts`, in lexicographic order:
    a level sweep that extends each prefix, with the counts it leaves, by
    every letter still left, smallest first."""
    level = [((), counts.counts)]
    for _ in range(counts.n):
        level = [(w + (x + 1,), left[:x] + (k - 1,) + left[x + 1:])
                 for w, left in level for x, k in enumerate(left) if k]
    return [Word._make((w, counts.T)) for w, _ in level]


def enumerate_alphabet_words(n: int, T: int) -> list[Word]:
    """All T^n words of length n, position 1 varying fastest."""
    if n < 1 or T < 1:
        raise ValueError("need n >= 1 and T >= 1")
    return [
        Word._make((tuple(reversed(tail)), T)) for tail in product(range(1, T + 1), repeat=n)
    ]


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _j_step(row: tuple, x: int) -> tuple:
    """J_w(m, .) from the row J_w(m+1, .) above it and w_m = x."""
    return tuple([k + (x > t) for t, k in enumerate(row)])


def _j_table(w: Word) -> list:
    """J[m][t] = J_w(m, t) = 1 + #{l : m <= l <= n, w_l > t} for m = 1..n+1
    and t = 0..T, from the top down; each row a tuple."""
    J = list(accumulate(reversed(w.letters), _j_step, initial=(1,) * (w.T + 1)))
    return [None] + J[::-1]


@lru_cache(maxsize=SKELETON_CACHE_SIZE)
def _shape_cached(walk: Callable, *shape):
    """walk(*shape), kept per process for the SKELETON_CACHE_SIZE (walk,
    shape) pairs last used: walk reads the shape only, never weights, and
    every caller shares its result, which nobody mutates."""
    return walk(*shape)


def _suffix_sweep(n: int, T: int, factors) -> list:
    """(J_w(1, .), product) for each word of enumerate_alphabet_words(n, T), in its order: x put
    at position i = n..1 multiplies by factors[x-1][E_w(i) - 1], E_w(i) = J_w(i+1, x)."""
    level = [((1,) * (T + 1), 1)]
    for _ in range(n):
        level = [(_j_step(row, x), acc * f[row[x] - 1])
                 for row, acc in level for x, f in enumerate(factors, 1)]
    return level


def _mass(p: ParamSet, factors, den):
    """The product of `factors`, read off p's tables, in order, over den,
    their scale: for exact weights one Fraction, for float weights the
    product itself (den is 1 there)."""
    acc = prod(factors, start=p.tables.L ** 0)
    return Fraction(acc, den) if p.exact else acc


def _float_normalizer(Z: float, noun: str = "normalizer Z") -> float:
    """A normalizer computed in floats, refused when it left the float range:
    it is positive in exact arithmetic, so 0 is an underflow and inf (or
    nan) an overflow; the error names it `noun`."""
    if not 0 < Z < inf:
        how = "underflows" if Z == 0 else "overflows"
        raise DegenerateParams(f"the {noun} {how} the float range; use exact weights")
    return Z


def complete_homogeneous(degree: int, values: Sequence):
    """h_degree(values) via the one-variable-at-a-time recurrence."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    one = values[0] ** 0
    h = [one] + [one * 0] * degree
    for v in values:
        for k in range(1, degree + 1):
            h[k] = h[k] + v * h[k - 1]
    return h[degree]


