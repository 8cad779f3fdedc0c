"""Subshift-of-finite-type base dynamics with exact eventually-periodic points.

Every point carries explicit periodic tails on both sides.  This class of
sequences is closed under shifting, splicing, orbit closing and homoclinic
enumeration, contains all periodic points, and admits decidable equality and
an exactly computable metric, which is what the rest of the library leans on.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice

import numpy as np

from .errors import (
    CylinderMismatch,
    InadmissibleLoop,
    NotStablePair,
    NotUnstablePair,
    ResourceLimit,
)

Word = bytes

ENUMERATION_CAP = 200_000  # points a periodic or homoclinic enumeration may produce
SYMBOL_CAP = 256  # symbols a space may have, so that every word is a bytes string
SAMPLE_BLOCK = 256  # draws sample_measure reads and steps at once; all at once costs memory


def _primitive(word: Word) -> Word:
    """Shortest word whose repetition tiles ``word``: its length is the first
    offset past 0 at which ``word`` occurs in ``word + word``."""
    return word[: (word + word).find(word, 1)]


def _tiling(word: Word, lo: int, hi: int) -> Word:
    """Coordinates ``lo .. hi-1`` of the sequence ``word[n mod len(word)]``."""
    start = lo % len(word)
    stop = start + hi - lo
    return (word * (stop // len(word) + 1))[start:stop]


def _rotate(word: Word, n: int) -> Word:
    """``word`` rotated left by n places (right for n < 0)."""
    n %= len(word)
    return word[n:] + word[:n]


def whole_number(val, name: str) -> int:
    """A document's count ``val`` as an int: an int or a whole float, not a bool."""
    if type(val) is not int and not (type(val) is float and val.is_integer()):
        raise ValueError(f"{name}: expected a whole number, got {val!r}")
    return int(val)


@dataclass(frozen=True)
class SFTSpace:
    """Two-sided shift space over symbols ``0..k-1`` restricted by a 0/1 matrix.

    With k at most SYMBOL_CAP every symbol is a byte, and every word (a tail,
    a core, a window, an enumerated word, a table key) is ``bytes``.  ``rho``
    is the base of the metric ``d(x, y) = rho**(-N)`` and is kept as a
    parameter because domination margins downstream depend on it.
    """

    k: int
    P: tuple[tuple[int, ...], ...]
    rho: int | float | Fraction = 2

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(tuple(int(e) for e in row) for row in self.P))
        if self.k < 2:
            raise ValueError("need at least two symbols")
        if self.k > SYMBOL_CAP:
            raise ValueError(f"{self.k} symbols, more than {SYMBOL_CAP} (SYMBOL_CAP)")
        if len(self.P) != self.k or any(len(row) != self.k for row in self.P):
            raise ValueError("transition matrix must be k x k")
        if any(e not in (0, 1) for row in self.P for e in row):
            raise ValueError("transition matrix entries must be 0 or 1")
        # with no null row every symbol has a successor, so the graph has a cycle
        if any(not any(row) for row in self.P):
            raise ValueError("transition matrix has a null row")
        if not self.rho > 1:
            raise ValueError("rho must exceed 1")
        if not self.rho <= sys.float_info.max:  # margins and distances read float(rho)
            raise ValueError("rho must be finite and fit a float")
        # the hash every dict keyed by a point or a space asks for, the symbol
        # bytes and the pattern point construction tests words against, a memo
        # of shortest cycles filled one symbol at a time, and the last word
        # list cocycles.table_words enumerated.  They are not fields, so ==,
        # repr and to_json never see them; the hash is the one the fields give.
        object.__setattr__(self, "_hash", hash((self.k, self.P, self.rho)))
        object.__setattr__(self, "_symbols", bytes(range(self.k)))
        object.__setattr__(self, "_pattern", _forbidden_pattern(self.P))
        object.__setattr__(self, "_cycles", {})
        object.__setattr__(self, "_table_words", {})

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def full_shift(cls, k: int, rho=2) -> "SFTSpace":
        return cls(k, tuple((1,) * k for _ in range(k)), rho)

    @classmethod
    def golden_mean(cls) -> "SFTSpace":
        """Two symbols, the word 11 forbidden."""
        return cls(2, ((1, 1), (1, 0)))

    def successors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.k) if self.P[i][j])

    def predecessors(self, j: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.k) if self.P[i][j])

    def admissible_word(self, word: Word) -> bool:
        """No forbidden pair in ``word``, whose symbols must lie in ``0..k-1``;
        the word is searched by one compiled pattern."""
        return self._pattern is None or self._pattern.search(word) is None

    def admissible_cycle(self, word: Word) -> bool:
        return bool(word) and self.admissible_word(word + word[:1])

    def words(self, length: int):
        """Admissible words of the given length in lexicographic order, at most ENUMERATION_CAP."""
        if length < 0:
            raise ValueError(f"word length must be >= 0, got {length}")
        if length == 0:
            yield b""
            return
        # level by level, each cut at ENUMERATION_CAP + 1 words: with no null
        # row, the first words of a level are extensions of the first of the last
        succ = [[bytes((t,)) for t in self.successors(s)] for s in range(self.k)]
        words = [bytes((s,)) for s in range(self.k)]
        for _ in range(length - 1):
            extend = (w + t for w in words for t in succ[w[-1]])
            words = list(islice(extend, ENUMERATION_CAP + 1))
        yield from words[:ENUMERATION_CAP]
        if len(words) > ENUMERATION_CAP:
            raise ResourceLimit(
                f"words of length {length} exceeded enumeration cap {ENUMERATION_CAP}"
            )

    def is_irreducible(self) -> bool:
        """Every symbol reaches every other by allowed transitions: P or the
        identity, squared until it covers every path of k steps, has no zero."""
        m = np.array(self.P, dtype=np.int64) | np.eye(self.k, dtype=np.int64)
        for _ in range(self.k.bit_length()):
            m = np.minimum(m @ m, 1)
        return bool(m.all())

    def to_json(self) -> dict:
        rho = self.rho
        return {
            "k": self.k,
            "P": [list(row) for row in self.P],
            "rho": float(rho) if not isinstance(rho, int) else rho,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SFTSpace":
        P = tuple(tuple(whole_number(e, "P") for e in row) for row in doc["P"])
        return cls(whole_number(doc["k"], "k"), P, doc.get("rho", 2))


_BYTE_ESCAPES = tuple(b"\\x%02x" % i for i in range(SYMBOL_CAP))


def _forbidden_pattern(P):
    """One compiled bytes pattern matching a forbidden pair, with one branch
    ``a[B]`` per symbol a whose forbidden successors are B; None when nothing
    is forbidden."""
    esc = _BYTE_ESCAPES
    branches = [
        b"%s[%s]" % (esc[a], b"".join([esc[j] for j, e in enumerate(row) if not e]))
        for a, row in enumerate(P) if not all(row)
    ]
    return re.compile(b"|".join(branches)) if branches else None


def _canonical(left: Word, core: Word, right: Word, core_start: int):
    """Unique representative: primitive tails, maximally absorbed core,
    leftmost junction, and periodic points anchored at coordinate 0.

    Each tail absorbs the core symbols that continue its period; their count
    is taken first, so the core and each tail are sliced once.
    """
    left = _primitive(left)
    right = _primitive(right)
    p, q, c = len(left), len(right), len(core)
    j = 0
    while j < c and core[c - 1 - j] == right[(-1 - j) % q]:
        j += 1
    if j:
        right = _rotate(right, -j)
        core = core[: c - j]
        c -= j
    i = 0
    while i < c and core[i] == left[i % p]:
        i += 1
    if i:
        left = _rotate(left, i)
        core = core[i:]
        core_start += i
    if core:
        return left, core, right, core_start
    # the two tails meet: the junction moves left past every symbol they share
    m = math.lcm(p, q)
    steps = next((i for i in range(m) if left[(-1 - i) % p] != right[(-1 - i) % q]), None)
    if steps is None:
        # fully periodic: re-anchor the word at coordinate 0
        w = _rotate(right, -core_start)
        return w, b"", w, 0
    return _rotate(left, -steps), b"", _rotate(right, -steps), core_start - steps


def _symbol_bytes(space: SFTSpace, words) -> list[Word]:
    """``words`` as ``bytes``, each read by value (``bytes()`` of a numpy array
    is its buffer); "symbol out of range" unless every symbol is in 0..k-1."""
    try:  # bytes() refuses a float, a negative symbol and one past 255
        words = [w if type(w) is bytes else bytes(tuple(w)) for w in words]
        stray = b"".join(words).translate(None, space._symbols)
    except (TypeError, ValueError):
        stray = True
    if stray:  # translate() deleted 0..k-1 and left a symbol from k to 255
        raise ValueError("symbol out of range")
    return words


def _point(space: SFTSpace, left: Word, core: Word, right: Word, core_start: int) -> "SymbolicPoint":
    """The canonical point with these ``bytes`` tails and core, unchecked: for
    words whose every new pair the caller checked (``make`` checks outside
    input and ends here).  A period of a valid point's side and a shortest
    cycle are admissible cycles by construction."""
    return SymbolicPoint(space, *_canonical(left, core, right, core_start))


@dataclass(frozen=True, slots=True)
class SymbolicPoint:
    """Eventually-periodic bi-infinite admissible sequence.

    ``left`` tiles all coordinates below ``core_start`` (its last letter sits
    immediately left of the core), ``core`` occupies ``core_start ..
    core_start+len(core)-1`` and ``right`` tiles everything after.  Instances
    are always in canonical form, so dataclass equality is point equality.
    """

    space: SFTSpace
    left: Word
    core: Word
    right: Word
    core_start: int

    @classmethod
    def make(cls, space: SFTSpace, left, core, right, core_start: int = 0) -> "SymbolicPoint":
        """The point with these tails and core: each ``bytes`` or a sequence of
        int symbols, read by value (``bytes()`` of a numpy array is its buffer)."""
        left, core, right = (w if type(w) is bytes else tuple(w) for w in (left, core, right))
        if not left or not right:
            raise ValueError("periodic tails must be non-empty")
        left, core, right = _symbol_bytes(space, (left, core, right))
        # a periodic point's two tails are one word, checked once
        if not (space.admissible_cycle(left) and (right == left or space.admissible_cycle(right))):
            raise ValueError("periodic tail is not an admissible cycle")
        seam = left[-1:] + core + right[:1]
        if not space.admissible_word(seam):
            raise ValueError("core or junction is not admissible")
        return _point(space, left, core, right, core_start)

    @classmethod
    def periodic(cls, space: SFTSpace, word) -> "SymbolicPoint":
        """The point ``x_n = word[n mod len(word)]`` for a sequence ``word``;
        ``make`` refuses an empty word or one that is not an admissible cycle."""
        return cls.make(space, word, b"", word, 0)

    @classmethod
    def fixed(cls, space: SFTSpace, symbol: int) -> "SymbolicPoint":
        return cls.periodic(space, (symbol,))

    def __getitem__(self, n: int) -> int:
        a = self.core_start
        if n < a:
            return self.left[(n - a) % len(self.left)]
        if n < a + len(self.core):
            return self.core[n - a]
        return self.right[(n - a - len(self.core)) % len(self.right)]

    def window(self, lo: int, hi: int) -> Word:
        """Symbols at coordinates ``lo .. hi-1``, read tail, core and tail by slices."""
        a = self.core_start
        b = a + len(self.core)
        out = _tiling(self.left, lo - a, min(hi, a) - a) if lo < a else b""
        if lo < b and a < hi:
            out += self.core[max(lo, a) - a : min(hi, b) - a]
        if b < hi:
            out += _tiling(self.right, max(lo, b) - b, hi - b)
        return out

    def shift(self, n: int = 1) -> "SymbolicPoint":
        """sigma**n: coordinate i of the result is coordinate i+n of self."""
        if self.is_periodic:
            w = _rotate(self.right, n)
            return SymbolicPoint(self.space, w, b"", w, 0)
        return SymbolicPoint(self.space, self.left, self.core, self.right, self.core_start - n)

    @property
    def is_periodic(self) -> bool:
        return not self.core and self.left == self.right and self.core_start == 0

    @property
    def period(self) -> int | None:
        """Minimal sigma-period, or None for non-periodic points."""
        return len(self.right) if self.is_periodic else None

    def sort_key(self):
        return (self.core_start, self.core, self.left, self.right)

    def __repr__(self):
        def w(word):
            return "".join(str(s) for s in word) if self.space.k <= 10 else ",".join(map(str, word))

        return f"<({w(self.left)})*|{w(self.core)}@{self.core_start}|({w(self.right)})*>"

    def to_json(self) -> dict:
        return {
            "left": list(self.left),
            "core": list(self.core),
            "right": list(self.right),
            "core_start": self.core_start,
        }


def distance_exponent(x: SymbolicPoint, y: SymbolicPoint) -> int | None:
    """Largest N with x_n = y_n for all |n| < N, or None when x == y."""
    if x.space != y.space:
        raise ValueError("points live in different spaces")
    if x == y:
        return None
    n = 0
    while True:
        if x[n] != y[n] or x[-n] != y[-n]:
            return n
        n += 1


def agreement_codes(points):
    """Pack each point's interleaved word x_0, x_-1, x_1, x_-2, x_2, ... into one int.

    Returns ``(codes, exponent)``: ``exponent(codes[i], codes[j])`` equals
    ``distance_exponent(points[i], points[j])``.  The words run to radius R, the
    largest core reach plus twice the longest tail period: past its reach each
    point is periodic, so by Fine and Wilf two distinct points differ within R
    and equal codes mean equal points.  Each symbol is one byte of its code,
    the first in the highest, so the highest set bit of ``a ^ b`` marks the
    common-prefix length.
    """
    pts = list(points)
    if not pts:
        return [], None
    space = pts[0].space
    if any(p.space != space for p in pts):
        raise ValueError("points live in different spaces")
    reach = max(max(abs(p.core_start), abs(p.core_start + len(p.core))) for p in pts)
    radius = reach + 2 * max(max(len(p.left), len(p.right)) for p in pts)
    width = 2 * radius + 1
    codes = []
    word = bytearray(width)
    for p in pts:
        w = p.window(-radius, radius + 1)
        word[0::2] = w[radius:]  # x_0, x_1, x_2, ...
        word[1::2] = w[radius - 1 :: -1]  # x_-1, x_-2, ...
        codes.append(int.from_bytes(word, "big"))

    def exponent(a: int, b: int) -> int | None:
        diff = a ^ b
        return (width - (diff.bit_length() - 1) // 8) // 2 if diff else None

    return codes, exponent


def agreement_exponents(points) -> np.ndarray:
    """The n x n int32 array of ``distance_exponent`` over ``points``, -1 where two are equal.

    All codes have one width, so sorting them sorts the interleaved words, and
    the common prefix of two points is the shortest adjacent one between them
    in that order.  The exponent only grows with the prefix, so row i of the
    sorted array is a running minimum of the adjacent exponents from i on.
    """
    codes, exponent = agreement_codes(points)
    n = len(codes)
    order = sorted(range(n), key=codes.__getitem__)
    equal = np.int32(np.iinfo(np.int32).max)  # an equal pair never lowers a minimum
    adjacent = np.array(
        [equal if (e := exponent(codes[a], codes[b])) is None else e
         for a, b in zip(order, order[1:])],
        dtype=np.int32,
    )
    out = np.full((n, n), -1, dtype=np.int32)
    for i in range(n - 1):
        out[i, i + 1 :] = np.minimum.accumulate(adjacent[i:])
    out = np.maximum(out, out.T)
    out[out == equal] = -1
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    return out[np.ix_(rank, rank)]


def distance(x: SymbolicPoint, y: SymbolicPoint):
    """rho**(-N) with N the symmetric agreement radius; 0 iff x == y."""
    n = distance_exponent(x, y)
    if n is None:
        return 0
    return x.space.rho ** (-n)


def splice(left_src: SymbolicPoint, word, lo: int, right_src: SymbolicPoint) -> SymbolicPoint:
    """The point reading ``left_src`` below ``lo``, then ``word``, then ``right_src``.

    Each source must be periodic on the side it gives: below ``lo`` for
    ``left_src`` and from ``lo + len(word)`` on for ``right_src``, as a
    periodic point is everywhere.  Each tail is one period of its source's
    side, so only ``word``'s symbols and the pairs from the left tail through
    ``word`` to the right tail are checked, with ``make``'s messages.
    """
    space = left_src.space
    if right_src.space != space:
        raise ValueError("points live in different spaces")
    hi = lo + len(word)
    if not (left_src.is_periodic or lo <= left_src.core_start) or not (
        right_src.is_periodic or hi >= right_src.core_start + len(right_src.core)
    ):
        raise ValueError("a source is not periodic on the side it gives")
    (word,) = _symbol_bytes(space, (word,))
    left = left_src.window(lo - len(left_src.left), lo)
    right = right_src.window(hi, hi + len(right_src.right))
    if not space.admissible_word(left[-1:] + word + right[:1]):
        raise ValueError("core or junction is not admissible")
    return _point(space, left, word, right, lo)


def bracket(y: SymbolicPoint, z: SymbolicPoint) -> SymbolicPoint:
    """Local product point w with w_n = y_n for n >= 0 and w_n = z_n for n <= 0."""
    if y.space != z.space:
        raise ValueError("points live in different spaces")
    if y[0] != z[0]:
        raise CylinderMismatch(f"coordinate-0 symbols differ: {y[0]} vs {z[0]}")
    lo = min(z.core_start, 0)
    hi = max(y.core_start + len(y.core), 0)
    word = z.window(lo, min(hi, 1))
    if hi > 1:
        word += y.window(1, hi)
    return splice(z, word, lo, y)


def stable_agreement_onset(x: SymbolicPoint, y: SymbolicPoint) -> int:
    """Smallest N >= 0 with x_m = y_m for all m >= N; NotStablePair otherwise."""
    hi = max(x.core_start + len(x.core), y.core_start + len(y.core), 0)
    span = math.lcm(len(x.right), len(y.right))
    xw, yw = x.window(0, hi + span), y.window(0, hi + span)
    if xw[hi:] != yw[hi:]:
        raise NotStablePair("forward tails differ")
    return next((m + 1 for m in range(hi - 1, -1, -1) if xw[m] != yw[m]), 0)


def unstable_agreement_onset(x: SymbolicPoint, y: SymbolicPoint) -> int:
    """Smallest N >= 0 with x_m = y_m for all m <= -N; NotUnstablePair otherwise."""
    lo = min(x.core_start, y.core_start, 0)
    span = math.lcm(len(x.left), len(y.left))
    xw, yw = x.window(lo - span, 1), y.window(lo - span, 1)
    if xw[:span] != yw[:span]:
        raise NotUnstablePair("backward tails differ")
    # xw[i] is coordinate lo - span + i
    return next((1 - lo + span - i for i in range(span, len(xw)) if xw[i] != yw[i]), 0)


def _admissible_cycles(space: SFTSpace, length: int):
    for w in space.words(length):
        if space.P[w[-1]][w[0]]:
            yield w


def periodic_points(space: SFTSpace, max_period: int) -> list[SymbolicPoint]:
    """All points fixed by some sigma**n, n <= max_period, each listed once."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    seen = set()
    count = 0
    for n in range(1, max_period + 1):
        for w in _admissible_cycles(space, n):
            count += 1
            if count > ENUMERATION_CAP:
                raise ResourceLimit(f"periodic enumeration exceeded cap {ENUMERATION_CAP}")
            seen.add(SymbolicPoint.periodic(space, w))
    return sorted(seen, key=SymbolicPoint.sort_key)


def homoclinic_points(x0: SymbolicPoint, core_len: int) -> list[SymbolicPoint]:
    """Points asymptotic to the orbit of the periodic point ``x0``.

    Tails outside the centred window ``[-core_len, core_len)`` are pinned to
    reference phases: the forward tail follows ``x0`` and the backward tail
    ``sigma**(period-1)(x0)``, which is the set the period-n0 construction
    samples (for a fixed point both follow ``x0``).  Window fillings may
    deviate from the reference on at most ``core_len`` coordinates.
    """
    if x0.period is None:
        raise ValueError("x0 must be periodic")
    if core_len < 0:
        raise ValueError("core_len must be >= 0")
    space = x0.space
    left_ref = x0.shift(x0.period - 1)
    a = -core_len

    out = set()
    prev0 = left_ref[a - 1]
    nxt = x0[core_len]
    ref = [left_ref[n] if n < 0 else x0[n] for n in range(a, core_len)]
    count = 0
    stack = [(b"", prev0, 0)]
    while stack:
        filling, prev, dev = stack.pop()
        i = len(filling)
        if i == 2 * core_len:
            if space.P[prev][nxt]:
                count += 1
                if count > ENUMERATION_CAP:
                    raise ResourceLimit(f"homoclinic enumeration exceeded cap {ENUMERATION_CAP}")
                out.add(splice(left_ref, filling, a, x0))
            continue
        for s in range(space.k - 1, -1, -1):
            if not space.P[prev][s]:
                continue
            d = dev + (s != ref[i])
            if d <= core_len:
                stack.append((filling + bytes((s,)), s, d))
    return sorted(out, key=SymbolicPoint.sort_key)


def _closing_word(y: SymbolicPoint, lo: int, hi: int) -> Word:
    """The word ``y_lo .. y_{hi-1}``; InadmissibleLoop if it cannot repeat."""
    if hi <= lo:
        raise ValueError("empty closing window")
    word = y.window(lo, hi)
    if not y.space.P[word[-1]][word[0]]:
        raise InadmissibleLoop(f"wrap pair ({word[-1]}, {word[0]}) is forbidden")
    return word


def closing_point_range(y: SymbolicPoint, lo: int, hi: int) -> SymbolicPoint:
    """Periodic point repeating the word ``y_lo .. y_{hi-1}`` in place: a
    window of y whose wrap pair ``_closing_word`` checked."""
    word = _closing_word(y, lo, hi)
    return _point(y.space, word, b"", word, lo)


def closing_point(y: SymbolicPoint, n: int) -> SymbolicPoint:
    """2n-periodic point repeating ``y_{-n} .. y_{n-1}``; shadows the loop of y."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return closing_point_range(y, -n, n)


def verify_closing_bound(y: SymbolicPoint, n: int):
    """Exact shadowing exponents for the closing point of ``y`` at radius n.

    Returns (rows, ok) where each row is (j, observed, required): the pair
    ``sigma**(j-n)`` of y and of its closing point z agrees to radius
    ``observed`` (None = equal) and the shadowing bound demands at least
    ``min(j, 2n-j) + M`` with ``rho**-M`` the loop gap.

    z repeats y's word on [-n, n), so with dR the first coordinate >= n and dL
    the last one < -n where y and z differ, row j observes
    ``min(dR - s, s - dL)`` at s = j - n.  Past ``max(core end, n)`` y has
    period ``len(y.right)`` and z a period dividing 2n, so by Fine and Wilf
    they differ within ``len(y.right) + 2n`` coordinates there or never; the
    left side mirrors this with ``len(y.left)``.  y is read as the word and one
    window per side, z by tiling the word; ``distance_exponent`` stays the
    per-pair oracle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    word = _closing_word(y, -n, n)
    m = distance_exponent(y.shift(n), y.shift(-n))
    hi = max(y.core_start + len(y.core), n) + len(y.right) + 2 * n
    lo = min(y.core_start, -n) - len(y.left) - 2 * n
    right = zip(y.window(n, hi), _tiling(word, 2 * n, hi + n))
    d_r = next((n + i for i, (a, b) in enumerate(right) if a != b), None)
    left = zip(reversed(y.window(lo, -n)), reversed(_tiling(word, lo + n, 0)))
    d_l = next((-n - 1 - i for i, (a, b) in enumerate(left) if a != b), None)
    rows = []
    ok = True
    for j in range(0, 2 * n + 1):
        s = j - n
        if d_r is None:
            obs = None if d_l is None else s - d_l
        else:
            obs = d_r - s if d_l is None else min(d_r - s, s - d_l)
        if m is None:
            required = None
            good = obs is None
        else:
            required = min(j, 2 * n - j) + m
            good = obs is None or obs >= required
        rows.append((j, obs, required))
        ok = ok and good
    return rows, ok


@dataclass(frozen=True)
class PseudoOrbit:
    """Finite orbit-with-jumps: consecutive gaps d(sigma(y_i), y_{i+1}) <= eps."""

    points: tuple[SymbolicPoint, ...]
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 2:
            raise ValueError("need at least two points")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        for a, b in zip(self.points, self.points[1:]):
            if distance(a.shift(1), b) > self.eps:
                raise ValueError("gap exceeds eps")

    @classmethod
    def closing_loop(cls, y: SymbolicPoint, n: int) -> "PseudoOrbit":
        """The loop sigma^-n(y), ..., sigma^n(y) wrapped back to its start."""
        pts = [y.shift(j) for j in range(-n, n)] + [y.shift(-n)]
        gap = distance(y.shift(n), y.shift(-n))
        eps = gap if gap > 0 else float(y.space.rho) ** (-(2 * n))
        return cls(tuple(pts), eps)


@dataclass(frozen=True)
class MarkovMeasure:
    """Markov measure compatible with the transition structure.

    These are the concrete fully-supported measures with local product
    structure used by the rigidity experiments.
    """

    space: SFTSpace
    Q: tuple[tuple[float, ...], ...]
    pi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "Q", tuple(tuple(float(q) for q in row) for row in self.Q))
        object.__setattr__(self, "pi", tuple(float(p) for p in self.pi))
        k = self.space.k
        if len(self.Q) != k or any(len(r) != k for r in self.Q):
            raise ValueError("Q must be k x k")
        for i in range(k):
            if abs(sum(self.Q[i]) - 1.0) > 1e-9:
                raise ValueError(f"row {i} of Q does not sum to 1")
            for j in range(k):
                if (self.Q[i][j] > 0) != (self.space.P[i][j] == 1):
                    raise ValueError("support of Q must match P")
        if len(self.pi) != k or abs(sum(self.pi) - 1.0) > 1e-9 or min(self.pi) <= 0:
            raise ValueError("pi must be a positive probability vector")
        piQ = np.array(self.pi) @ np.array(self.Q)
        if np.max(np.abs(piQ - np.array(self.pi))) > 1e-9:
            raise ValueError("pi is not stationary for Q")
        if not self.space.is_irreducible():
            raise ValueError("chain is not irreducible")
        # the samplers' cumulative tables, one per direction, built here so
        # that their checks refuse at construction what sampling would refuse.
        # They are not fields, so ==, hash and repr never see them.
        object.__setattr__(self, "_start_cdf", _cumulative(self.pi))
        object.__setattr__(self, "_forward_cdf", tuple(map(_cumulative, self.Q)))
        object.__setattr__(self, "_backward_cdf", tuple(map(_cumulative, self.backward_kernel())))

    @classmethod
    def from_matrix(cls, space: SFTSpace, Q) -> "MarkovMeasure":
        Q = np.array(Q, dtype=float)
        k = space.k
        a = Q.T - np.eye(k)
        a[-1, :] = 1.0
        b = np.zeros(k)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:  # Q has more than one stationary vector
            raise ValueError("chain is not irreducible") from None
        return cls(space, tuple(map(tuple, Q)), tuple(pi))

    @classmethod
    def uniform(cls, space: SFTSpace) -> "MarkovMeasure":
        """Rows of P normalised; Bernoulli(1/k,...) on a full shift."""
        Q = [[e / sum(row) for e in row] for row in space.P]
        return cls.from_matrix(space, Q)

    def backward_kernel(self) -> tuple[tuple[float, ...], ...]:
        k = self.space.k
        return tuple(
            tuple(self.pi[j] * self.Q[j][i] / self.pi[i] for j in range(k)) for i in range(k)
        )


def _shortest_cycle(space: SFTSpace, s: int) -> Word:
    """Shortest admissible cycle through symbol ``s``, found by BFS on the
    first request and then read from the space's memo."""
    cycles = space._cycles
    if s not in cycles:
        cycles[s] = _cycle_search(space, s)
    return cycles[s]


def _cycle_search(space: SFTSpace, s: int) -> Word:
    seen, frontier = set(), [bytes((s,))]  # paths from s, one per symbol reached
    while frontier:
        nxt = []
        for path in frontier:
            for u in space.successors(path[-1]):
                if u == s:
                    return path
                if u not in seen:
                    seen.add(u)
                    nxt.append(path + bytes((u,)))
        frontier = nxt
    raise ValueError(f"no cycle through symbol {s}")  # pragma: no cover


def _complete_word(space: SFTSpace, word: Word, core_start: int) -> SymbolicPoint:
    """Extend a finite admissible word to a point by periodic continuation;
    both seams are edges of shortest cycles, so nothing is checked."""
    cyc_l = _shortest_cycle(space, word[0])
    cyc_r = _shortest_cycle(space, word[-1])
    left = cyc_l  # ends right before word[0]: wrap pair (last, word[0]) is the cycle edge
    right = _rotate(cyc_r, 1)  # starts right after word[-1]
    return _point(space, left, word, right, core_start)


_SUM_ATOL = math.sqrt(sys.float_info.epsilon)


def _cumulative(p) -> tuple[float, ...]:
    """The table ``Generator.choice`` inverts for the probabilities ``p``.

    It is built as ``choice`` builds it (float64 running sums divided by the
    last one), after the checks ``choice`` makes on every call.
    """
    if any(math.isnan(q) for q in p):
        raise ValueError("probabilities contain NaN")
    if any(q < 0 for q in p):
        raise ValueError("probabilities are not non-negative")
    if abs(math.fsum(p) - 1.0) > _SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = list(accumulate(p))
    return tuple(c / cdf[-1] for c in cdf)


def _walk(cdf, s: int, uniforms) -> list[int]:
    """The chain's states after ``s``, one per uniform, by inversion of the
    rows of ``cdf``: the index ``rng.choice`` returns for the same uniform."""
    out = []
    for u in uniforms:
        s = bisect_right(cdf[s], u)
        out.append(s)
    return out


def sample_measure(
    mu: MarkovMeasure, count: int, seed: int, depth: int = 64
) -> list[SymbolicPoint]:
    """i.i.d. cylinder-truncated draws from the Markov measure.

    Each draw is an admissible word of length ``depth`` centred on coordinate
    0 (stationary start), completed to a point by periodic continuation.  A
    draw reads ``depth`` uniforms, one per symbol, the first for the start.

    The uniforms come from one stream, read as ``(b, depth)`` blocks of at
    most SAMPLE_BLOCK draws, row after row, so the draws are those of one
    ``rng.random(depth)`` call each.  All draws of a block step together: the
    count of a non-decreasing cdf row's entries <= u is its ``bisect_right``.
    Each drawn word is searched for a forbidden pair before it is completed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = np.random.default_rng(seed)
    start, forward = np.array(mu._start_cdf), np.array(mu._forward_cdf)
    out = []
    for done in range(0, count, SAMPLE_BLOCK):
        u = rng.random((min(SAMPLE_BLOCK, count - done), depth))
        syms = np.empty(u.shape, dtype=np.uint8)
        s = syms[:, 0] = np.count_nonzero(start <= u[:, :1], axis=1)
        for t in range(1, depth):
            s = syms[:, t] = np.count_nonzero(forward[s] <= u[:, t, None], axis=1)
        words = [w.tobytes() for w in syms]
        if not all(map(mu.space.admissible_word, words)):
            raise ValueError("sampled word is not admissible")
        out.extend(_complete_word(mu.space, w, -(depth // 2)) for w in words)
    return out


def resample_future(
    mu: MarkovMeasure, x: SymbolicPoint, rng, depth: int = 32
) -> SymbolicPoint:
    """Redraw coordinates n >= 1 from the chain: a point on W^u_loc(x).  Its
    word from ``lo`` on is checked; its left tail is a period of x's."""
    lo = min(x.core_start, 0)
    past = x.window(lo, 1)
    syms = past + bytes(_walk(mu._forward_cdf, past[-1], rng.random(depth).tolist()))
    if not mu.space.admissible_word(syms):
        raise ValueError("resampled word is not admissible")
    left = x.window(lo - len(x.left), lo)
    cyc_r = _shortest_cycle(mu.space, syms[-1])
    return _point(mu.space, left, syms, _rotate(cyc_r, 1), lo)


def resample_past(
    mu: MarkovMeasure, x: SymbolicPoint, rng, depth: int = 32
) -> SymbolicPoint:
    """Redraw coordinates n <= -1 via the reversed kernel: a point on W^s_loc(x).
    Its word up to ``hi`` is checked; its right tail is a period of x's."""
    hi = max(x.core_start + len(x.core), 0)
    rev = [x[0]] + _walk(mu._backward_cdf, x[0], rng.random(depth).tolist())
    syms = bytes(reversed(rev)) + x.window(1, hi + 1)
    if not mu.space.admissible_word(syms):
        raise ValueError("resampled word is not admissible")
    right = x.window(hi + 1, hi + 1 + len(x.right))
    cyc_l = _shortest_cycle(mu.space, syms[0])
    return _point(mu.space, cyc_l, syms, right, -depth)
