"""Cocycles of PL circle homeomorphisms over a shift, as finite-window tables.

A generator assigns a fibre map to every admissible word of length 2w+1; the
value at a point is the table entry of its centred window.  Locally constant
generators are Holder for every exponent and make the regularity constants
below exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import symbolic
from .circlemaps import PLMap, compose, invert, lipschitz_metric, rotation_numerators
from .errors import NotDominated, ResourceLimit
from .symbolic import SFTSpace, SymbolicPoint, whole_number

BREAKPOINT_CAP = 100_000
DENOMINATOR_BITS_CAP = 4096  # bit length of the largest denominator of an exact orbit product
ORBIT_MEMO_CAP = 4096  # orbit products memoised per cocycle before the memo is emptied
TABLE_ENTRY_CAP = 16_384  # words a window table may have; theorem-a's default G has 8,192
HORIZON_CAP = 1000  # largest distortion horizon a config may ask for
N_MAX_CAP = 200  # largest holonomy convergence depth n_max a config may ask for
HOLDER_PAIRS_CAP = 200_000  # table-word pairs holder_const_cocycle may read
GROWTH_MARGIN = 1.1  # factor by which distortion must rise over the later half to be growth


def table_words(space: SFTSpace, window: int, where: str):
    """The admissible words of length 2*window+1 that index a window table.

    They are counted by last symbol before any is enumerated.  With no null
    row the count never falls as words grow, so the count stops as soon as it
    passes TABLE_ENTRY_CAP; ResourceLimit then names ``where``.  The space
    keeps the last tuple of ``bytes`` words enumerated here, under its length
    and the ``ENUMERATION_CAP`` it was enumerated under, so a fixture and the
    ``CocycleSpec`` it builds enumerate one table's words once.
    """
    length = 2 * window + 1
    ends = [1] * space.k  # admissible words of the length reached, by last symbol
    for _ in range(length - 1):
        if sum(ends) > TABLE_ENTRY_CAP:
            break
        ends = [sum(ends[s] for s in space.predecessors(t)) for t in range(space.k)]
    if sum(ends) > TABLE_ENTRY_CAP:
        raise ResourceLimit(
            f"{where}: a window-{window} table over this space has more than "
            f"{TABLE_ENTRY_CAP} entries (TABLE_ENTRY_CAP)"
        )
    key = (length, symbolic.ENUMERATION_CAP)
    memo = space._table_words
    if key not in memo:
        words = tuple(space.words(length))
        memo.clear()
        memo[key] = words
    return memo[key]


@dataclass(frozen=True, eq=False)
class CocycleSpec:
    space: SFTSpace
    window: int
    table: dict
    alpha: float | Fraction = 1

    def __post_init__(self):
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        words = table_words(self.space, self.window, "CocycleSpec")
        # a table built from these very words passes the first test at
        # identity-comparison speed
        if tuple(self.table) != words and (
            len(words) != len(self.table) or not all(w in self.table for w in words)
        ):
            odd = next((key for key in self.table if type(key) is not bytes), None)
            if odd is not None:
                raise ValueError(f"table key {odd!r}: words must be bytes")
            want, have = set(words), set(self.table)
            missing, extra = ([tuple(w) for w in sorted(ws)[:3]]  # words as int tuples
                              for ws in (want - have, have - want))
            raise ValueError(f"table mismatch; missing={missing} extra={extra}")
        object.__setattr__(self, "_cache", {})

    def generator(self, x: SymbolicPoint) -> PLMap:
        w = self.window
        return self.table[x.window(-w, w + 1)]

    def to_json(self) -> dict:
        sep = "" if self.space.k <= 10 else ","
        return {
            "window": self.window,
            "alpha": float(self.alpha),
            "table": {
                sep.join(str(s) for s in word): m.to_json() for word, m in sorted(self.table.items())
            },
        }

    @classmethod
    def from_json(cls, space: SFTSpace, doc: dict) -> "CocycleSpec":
        if not isinstance(doc["table"], dict):
            raise TypeError("table: expected an object")
        table = {}
        for key, m in doc["table"].items():
            # to_json joins symbols with "," when k > 10; a one-symbol word has no ","
            split = "," in key or space.k > 10
            try:
                word = bytes(int(s) for s in (key.split(",") if split else key))
            except ValueError:  # a symbol that is not an int, or not a byte
                raise ValueError(f"table key {key!r}: symbols must be ints from 0 to 255") from None
            table[word] = PLMap.from_json(m)
        alpha = doc.get("alpha", 1)
        if type(alpha) not in (int, float):
            raise ValueError(f"alpha: expected a number in (0, 1], got {alpha!r}")
        return cls(space, whole_number(doc["window"], "window"), table, alpha)


def _check_caps(h: PLMap, step: int) -> None:
    if len(h.breaks) > BREAKPOINT_CAP:
        raise ResourceLimit(
            f"orbit product reached {len(h.breaks)} breakpoints at step {step} "
            f"(cap {BREAKPOINT_CAP})"
        )
    if h.is_exact:
        bits = max(q.denominator for q in h.breaks + h.vals).bit_length()
        if bits > DENOMINATOR_BITS_CAP:
            raise ResourceLimit(
                f"orbit product reached {bits}-bit denominators at step {step} "
                f"(cap {DENOMINATOR_BITS_CAP})"
            )


def orbit_product(maps, h: PLMap | None = None, step: int = 0) -> PLMap:
    """The product m_k ... m_1 h of ``maps`` = m_1, ..., m_k after ``h``.

    A fold resumed from a known product passes it as ``h``, with the number
    of steps it covers as ``step``; with no ``h`` and no maps the product is
    the identity.  Each prefix m_j ... m_1 h is checked against
    ``BREAKPOINT_CAP`` and, when exact, against ``DENOMINATOR_BITS_CAP``.
    """
    for step, m in enumerate(maps, step + 1):
        h = m if h is None else compose(m, h)
        _check_caps(h, step)
    return PLMap.identity() if h is None else h


def _orbit_word(x: SymbolicPoint, w: int, n: int) -> bytes:
    """The word f^n_x depends on for a window-w table: x[-w : n+w] for n >= 0,
    x[n-w : w] for n < 0."""
    return x.window(-w, n + w) if n >= 0 else x.window(n - w, w)


def _orbit_words(x: SymbolicPoint, w: int, top: int, bottom: int) -> tuple[bytes, bytes]:
    """x's orbit words at window w for the indices ``top`` and ``bottom``,
    ``b""`` for an index of the other sign."""
    return (_orbit_word(x, w, top) if top > 0 else b"",
            _orbit_word(x, w, bottom) if bottom < 0 else b"")


def _word_generators(c: CocycleSpec, word: bytes, n: int, start: int = 0):
    """Generators of steps start+1 .. |n| of f^n, read from its orbit word.

    For n < 0 these are the inverse generators at sigma^-1 x, sigma^-2 x, ...,
    since f^-j_x = (g at sigma^-j x)^-1 f^-(j-1)_x.
    """
    span, table = 2 * c.window + 1, c.table
    if n >= 0:
        return (table[word[j : j + span]] for j in range(start, n))
    # step j reads the window of sigma^-j x, which starts at word index |n| - j
    return (invert(table[word[j : j + span]]) for j in range(-n - 1 - start, -1, -1))


class _WindowNumerators(dict):
    """Angle numerators by window, read from the table when first asked for:
    a run reads few of a wide table's windows.  A key is a window as bytes;
    ``by_id`` holds each distinct map's numerator."""

    def __init__(self, table: dict, by_id: dict):
        super().__init__()
        self.table, self.by_id = table, by_id

    def __missing__(self, key):
        num = self[key] = self.by_id[id(self.table[key])]
        return num


def _rotation_sums(c: CocycleSpec):
    """``(den, numerators)`` when c's orbit products are numerator sums, else
    None: every entry of c's table is an exact rotation, ``den`` fits
    ``DENOMINATOR_BITS_CAP`` and ``BREAKPOINT_CAP`` admits one breakpoint, so
    no step of a fold could pass a cap.  ``numerators`` gives a window's angle
    numerator over ``den``.  The table's scan is held in ``c._cache``; the
    caps are read on every call."""
    if "rotations" not in c._cache:
        found = rotation_numerators(c.table.values())
        if found is not None:
            den, by_id = found
            found = den, _WindowNumerators(c.table, by_id)
        c._cache["rotations"] = found
    rot = c._cache["rotations"]
    if rot is not None and rot[0].bit_length() <= DENOMINATOR_BITS_CAP and BREAKPOINT_CAP >= 1:
        return rot
    return None


def _prefix_sums(c: CocycleSpec, nums, words, cut: int, top: int, bottom: int):
    """``(forward, backward)``: forward[n] for 0 <= n <= top and backward[n]
    for 0 <= n <= -bottom are the signed sums of the window numerators that
    f^n_x and f^-n_x are the rotations by (over ``_rotation_sums``' ``den``,
    not reduced).

    f^n_x for n > 0 sums the windows of x, sigma x, ..., sigma^(n-1) x, and
    f^-n_x negates the sum over sigma^-1 x, ..., sigma^-n x: each is a prefix
    sum along the orbit word of the longest index of its sign, so each word
    is read once.  ``words`` are x's ``_orbit_words`` for ``top`` and
    ``bottom`` at window c.window + cut, so c's windows start ``cut``
    symbols in.
    """
    span, (fwd, bwd) = 2 * c.window + 1, words
    forward = backward = (0,)
    if top > 0:
        forward = [0, *accumulate([nums[fwd[j : j + span]] for j in range(cut, cut + top)])]
    if bottom < 0:  # step j reads the window that starts at word index cut + |bottom| - j
        backward = [0, *accumulate([-nums[bwd[j : j + span]]
                                    for j in range(cut - bottom - 1, cut - 1, -1)])]
    return forward, backward


def iterate(c: CocycleSpec, x: SymbolicPoint, n: int) -> PLMap:
    """n-step fibre composition; negative n uses the inverse-iterate convention
    f^n_x = (f^{|n|} at sigma^n(x))^{-1}, the unique one satisfying the cocycle law.
    f^0_x is the identity, as an empty fold.

    Products are folded by ``orbit_product`` and memoised per cocycle by
    direction and orbit word; each was checked against ``BREAKPOINT_CAP`` and
    ``DENOMINATOR_BITS_CAP`` when it was folded.  A product not yet memoised
    extends the longest memoised prefix of its word.  The memo holds at most
    ``ORBIT_MEMO_CAP`` products and is emptied when full.
    """
    word = _orbit_word(x, c.window, n)
    memo = c._cache.setdefault("orbit", {})
    key = (n > 0, word)
    h = memo.get(key)
    if h is None:
        steps, span = abs(n), 2 * c.window
        done = 0
        for m in range(steps - 1, 0, -1):
            h = memo.get((n > 0, word[: m + span] if n > 0 else word[steps - m :]))
            if h is not None:
                done = m
                break
        try:
            h = orbit_product(_word_generators(c, word, n, done), h, done)
        except ResourceLimit as e:
            raise ResourceLimit(f"{e} folding f^{n} at {x!r}") from None
        if len(memo) >= ORBIT_MEMO_CAP:
            memo.clear()
        memo[key] = h
    return h


def _stacked_words(points, w: int, top: int, bottom: int):
    """The points' ``_orbit_words`` for ``top`` and ``bottom`` at window w,
    stacked into two uint8 matrices, one row per point."""
    return [np.frombuffer(b"".join(ws), np.uint8).reshape(len(points), -1)
            for ws in zip(*(_orbit_words(p, w, top, bottom) for p in points))]


def _distinct_windows(words, cut: int, steps: int, span: int):
    """The distinct length-``span`` windows that start at columns cut ..
    cut+steps-1 of the matrix ``words``, as bytes in lexicographic order,
    and an array of shape (rows, steps) of each window's index among them."""
    if not steps:
        return [], np.zeros((len(words), 0), np.intp)
    wins = sliding_window_view(words, span, axis=1)[:, cut : cut + steps].reshape(-1, span)
    order = np.lexsort(wins.T[::-1])
    ranked = wins[order]
    first = np.ones(len(ranked), bool)  # where a run of equal windows starts
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    index = np.empty(len(ranked), np.intp)
    index[order] = np.cumsum(first) - 1
    return [w.tobytes() for w in ranked[first]], index.reshape(len(words), steps)


def _stacked_numerators(terms, ns, top: int, bottom: int, den: int):
    """The numerator rows of ``quotient_numerators`` over point sequences.

    ``terms`` holds, for A and then B, the cocycle, its window numerators,
    its scale (negative for A), its stacked words (``_stacked_words``) and
    the column its windows start at.  Each distinct window's numerator is
    read once and scaled, the per-step differences are summed along the
    rows, and column n - bottom of the sums is index n, so each point's
    indices are picked out in one step.  The sums are int64 when ``den``
    and every partial sum fit, else Python ints in an object array.
    """
    reads = []  # per cocycle and direction: (scaled distinct numerators, window indices)
    for c, nums, scale, words, cut in terms:
        for mat, steps in zip(words, (top, -bottom)):
            keys, index = _distinct_windows(mat, cut, steps, 2 * c.window + 1)
            reads.append(([nums[key] * scale for key in keys], index))
    bound = max(top, -bottom) * sum(max(map(abs, vals), default=0) for vals, _ in reads)
    dtype = np.int64 if max(den, bound) < 2**63 else object
    fa, ba, fb, bb = (np.array(vals, dtype)[index] for vals, index in reads)
    # step j back reads the window at column -bottom - j, and f^-n negates
    back = -np.cumsum((ba + bb)[:, ::-1], axis=1)[:, ::-1]
    sums = np.concatenate([back, np.zeros((len(ns), 1), dtype), np.cumsum(fa + fb, axis=1)], axis=1)
    return (sums[np.arange(len(ns))[:, None], ns - bottom] % den).tolist()


def quotient_numerators(A: CocycleSpec, y, B: CocycleSpec, x, ns):
    """``(den, numerators)`` when both tables pass ``_rotation_sums``, else None.

    For points y and x, (A^n_y)^-1 B^n_x for the i-th n in ``ns`` is then
    the rotation by numerators[i] / den, with 0 <= numerators[i] < den and
    den the lcm of the two tables' denominators: one integer difference of
    the two cocycles' prefix sums (``_prefix_sums``), each point's orbit
    words read once for all of ``ns``.  When y is x they are read once, at
    the wider of the two windows, and both cocycles read them.

    y and x may also be equal-length sequences of points, with ``ns`` one
    row of indices per point.  numerators[i] is then the row of y[i] and
    x[i], all read in one vectorised pass (``_stacked_numerators``).  A
    single pair keeps the loop, given alone or as the one pair of a
    sequence: numpy's cost per call is about ten times one pair's sums.
    """
    if not isinstance(y, SymbolicPoint) and len(y) == 1:
        sums = quotient_numerators(A, y[0], B, x[0], ns[0])
        return None if sums is None else (sums[0], [sums[1]])
    ra, rb = _rotation_sums(A), _rotation_sums(B)
    if ra is None or rb is None:
        return None
    den = math.lcm(ra[0], rb[0])
    ua, ub = den // ra[0], den // rb[0]
    wa, wb = A.window, B.window
    wy, wx = (max(wa, wb),) * 2 if y is x else (wa, wb)
    stacked = not isinstance(y, SymbolicPoint)
    if stacked:
        if not y:
            return den, []
        ns = np.asarray(ns, dtype=np.int64).reshape(len(y), -1)
        top, bottom = max(int(ns.max()), 0), min(int(ns.min()), 0)
    else:
        top, bottom = max(ns), min(ns)
    read = _stacked_words if stacked else _orbit_words
    words_y = read(y, wy, top, bottom)
    words_x = words_y if y is x else read(x, wx, top, bottom)
    if stacked:
        return den, _stacked_numerators(((A, ra[1], -ua, words_y, wy - wa),
                                         (B, rb[1], ub, words_x, wx - wb)), ns, top, bottom, den)
    fa, ba = _prefix_sums(A, ra[1], words_y, wy - wa, top, bottom)
    fb, bb = _prefix_sums(B, rb[1], words_x, wx - wb, top, bottom)
    return den, [(fb[n] * ub - fa[n] * ua if n >= 0 else bb[-n] * ub - ba[-n] * ua) % den
                 for n in ns]


def quotients(A: CocycleSpec, y: SymbolicPoint, B: CocycleSpec, x: SymbolicPoint, ns) -> list:
    """[(A^n_y)^-1 B^n_x for n in ns], the quotients that holonomies and
    conjugacies are limits of, each product read through ``iterate``."""
    return [compose(invert(iterate(A, y, n)), iterate(B, x, n)) for n in ns]


def holder_const_cocycle(c: CocycleSpec) -> float:
    """Exact sup of d_1(f_x, f_y) / d(x, y)**alpha over distinct points.

    The sup is attained among table-word pairs grouped by their centred
    agreement radius, so the computation is finite.  Exactness assumes every
    admissible word occurs in some point (true whenever every symbol has a
    predecessor); otherwise the value is still a valid upper bound.  A table
    with more than ``HOLDER_PAIRS_CAP`` word pairs is refused before any is read.
    """
    pairs = len(c.table) * (len(c.table) - 1) // 2
    if pairs > HOLDER_PAIRS_CAP:
        raise ResourceLimit(f"holder_const_cocycle: {pairs} table-word pairs, "
                            f"more than {HOLDER_PAIRS_CAP} (HOLDER_PAIRS_CAP)")
    rho = float(c.space.rho)
    alpha = float(c.alpha)
    words = sorted(c.table)
    w = c.window
    best = 0.0
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            r = 0
            while r <= w and u[w + r] == v[w + r] and u[w - r] == v[w - r]:
                r += 1
            # u, v agree on |m| < r and are realised by points at distance rho**-r
            d1 = float(lipschitz_metric(c.table[u], c.table[v]))
            best = max(best, d1 * rho ** (alpha * r))
    return best


@dataclass(frozen=True)
class DominationReport:
    theta_s: float
    theta_u: float
    su_dominated: bool

    @property
    def theta(self) -> float:
        return min(self.theta_s, self.theta_u)


def _margins(c: CocycleSpec, n0: int) -> DominationReport:
    """theta = alpha - log_{rho**n0}(extremal slope) over the time-n0 products.

    When ``_rotation_sums`` answers, every product is an exact rotation of
    slope exactly 1 that passes every cap, so the identity stands for them."""
    key = ("dom", n0)
    if key not in c._cache:
        products = c.table.values()
        if _rotation_sums(c) is not None:
            products = (PLMap.identity(),)
        elif n0 > 1:
            products = [orbit_product(_word_generators(c, word, n0))
                        for word in c.space.words(2 * c.window + n0)]
        up = down = 0.0  # largest slope and largest inverse slope
        for h in products:
            slopes = h.slopes
            up, down = max(up, float(max(slopes))), max(down, 1.0 / float(min(slopes)))
        alpha, log_rho = float(c.alpha), math.log(float(c.space.rho) ** n0)
        theta_u = alpha - math.log(up) / log_rho
        theta_s = alpha - math.log(down) / log_rho
        c._cache[key] = DominationReport(theta_s, theta_u, theta_s > 0 and theta_u > 0)
    return c._cache[key]


def check_domination(c: CocycleSpec) -> DominationReport:
    """Domination margins of the generator table, measured against rho."""
    return _margins(c, 1)


@dataclass(frozen=True)
class DistortionReport:
    K_est: float
    horizon: int
    certified: bool
    per_step_max: tuple[float, ...] = ()
    growth_flagged: bool = False


def check_bounded_distortion(c: CocycleSpec, horizon: int, samples) -> DistortionReport:
    """Empirical distortion bound max(L(f^n_x), L((f^n_x)^-1)) over the samples.

    ``certified`` is True exactly when every generator is a rotation, in which
    case all compositions are isometries.  Growth is flagged when the per-step
    maxima have a positive fitted growth rate and the later half of the
    horizon exceeds the earlier half's maximum by more than GROWTH_MARGIN, so
    distortion that keeps increasing is flagged and bounded oscillation, whose
    running maximum levels off, is not.  When ``_rotation_sums`` answers,
    every product is an exact rotation of slope exactly 1 that passes every
    cap, so no orbit is read.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    samples = list(samples) if _rotation_sums(c) is None else []
    per_step = [1.0] * horizon
    for x in samples:
        for n in range(1, horizon + 1):
            slopes = iterate(c, x, n).slopes
            per_step[n - 1] = max(per_step[n - 1], float(max(slopes)), 1.0 / float(min(slopes)))
    k_est = max(per_step) if samples else 1.0
    certified = all(m.is_rotation for m in c.table.values())
    growth = False
    if not certified and horizon >= 4 and k_est > 1.0:
        logs = np.log(np.maximum(per_step, 1.0))
        slope = np.polyfit(range(1, horizon + 1), logs, 1)[0]
        half = horizon // 2
        rise = max(per_step[half:]) > GROWTH_MARGIN * max(per_step[:half])
        growth = bool(slope > 1e-3) and rise
    return DistortionReport(k_est, horizon, certified, tuple(per_step), growth)


def power_domination(c: CocycleSpec, n0: int) -> DominationReport:
    """Domination margins of the time-n0 cocycle, measured against rho**n0."""
    return check_domination(c) if n0 == 1 else _margins(c, n0)


def dominated_pair(F: CocycleSpec, G: CocycleSpec, n0: int = 1) -> tuple[DominationReport, ...]:
    """Time-n0 domination reports of both cocycles, refusing either one that is not."""
    reports = []
    for name, c in (("first", F), ("second", G)):
        dom = power_domination(c, n0)
        if not dom.su_dominated:
            raise NotDominated(f"{name} cocycle: theta = {dom.theta:.4f}")
        reports.append(dom)
    return tuple(reports)
