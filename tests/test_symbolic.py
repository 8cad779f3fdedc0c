import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cocyclelab import (
    MarkovMeasure,
    PseudoOrbit,
    SFTSpace,
    SymbolicPoint,
    bracket,
    closing_point,
    distance,
    distance_exponent,
    homoclinic_points,
    periodic_points,
    resample_future,
    resample_past,
    sample_measure,
    splice,
    verify_closing_bound,
)
from cocyclelab.errors import (
    CylinderMismatch,
    InadmissibleLoop,
    NotStablePair,
    NotUnstablePair,
    ResourceLimit,
)
from cocyclelab.fixtures import staircase_space
from cocyclelab.symbolic import (
    SAMPLE_BLOCK,
    SYMBOL_CAP,
    _canonical,
    _complete_word,
    _cumulative,
    _primitive,
    _rotate,
    _shortest_cycle,
    _tiling,
    agreement_codes,
    agreement_exponents,
    stable_agreement_onset,
    unstable_agreement_onset,
)

from conftest import random_point, unequal_tail_pool


# ---------------------------------------------------------------- construction


def test_space_validation():
    with pytest.raises(ValueError):
        SFTSpace(2, ((0, 0), (1, 1)))  # null row
    with pytest.raises(ValueError):
        SFTSpace(2, ((1, 1), (1, 1)), rho=1)
    with pytest.raises(ValueError):
        SFTSpace(1, ((1,),))
    with pytest.raises(ValueError, match="word length"):
        next(SFTSpace.full_shift(2).words(-1))


def test_inadmissible_point_rejected(golden):
    with pytest.raises(ValueError):
        SymbolicPoint.make(golden, (0,), (1, 1), (0,), 0)
    with pytest.raises(ValueError):
        SymbolicPoint.periodic(golden, (1,))  # 11 forbidden
    with pytest.raises(ValueError):
        SymbolicPoint.periodic(golden, ())


def _per_symbol_make(space, left, core, right, core_start):
    """The per-symbol range and admissibility checks ``make`` made before it
    tested words with set operations, kept as its reference; None = refused."""
    if not left or not right:
        return None
    for w in (left, core, right):
        if any(not (0 <= s < space.k) for s in w):
            return None

    def word_ok(w):
        return all(space.P[a][b] == 1 for a, b in zip(w, w[1:]))

    if not all(word_ok(w) and space.P[w[-1]][w[0]] == 1 for w in (left, right)):
        return None
    if not word_ok((left[-1],) + core + (right[0],)):
        return None
    return SymbolicPoint(space, *_canonical(left, core, right, core_start))


MAKE_SPACES = {
    "full2": SFTSpace.full_shift(2),
    "golden": SFTSpace.golden_mean(),
    # forbidden pairs 02, 10 and 21
    "sft3": SFTSpace(3, ((1, 1, 0), (0, 1, 1), (1, 0, 1))),
    # mostly forbidden pairs, searched by one pattern of many branches
    "staircase2": staircase_space(2),
}


def _walk_word(data, space, length):
    """An admissible word drawn one successor at a time."""
    word = [data.draw(st.integers(0, space.k - 1))]
    for _ in range(length - 1):
        succ = space.successors(word[-1])
        word.append(succ[data.draw(st.integers(0, len(succ) - 1))])
    return word


@given(st.sampled_from(sorted(MAKE_SPACES)), st.data())
@settings(max_examples=300, deadline=None)
def test_make_refuses_exactly_where_the_per_symbol_checks_do(name, data):
    space = MAKE_SPACES[name]
    sizes = [data.draw(st.integers(lo, hi)) for lo, hi in ((1, 5), (0, 5), (1, 5))]
    if data.draw(st.booleans()):
        # symbols drawn freely: on a sparse matrix nearly every word is refused
        word = data.draw(st.lists(st.integers(0, space.k - 1), min_size=sum(sizes),
                                  max_size=sum(sizes)))
    else:
        word = _walk_word(data, space, sum(sizes))
    left, core, right = (
        tuple(word[: sizes[0]]), tuple(word[sizes[0] : -sizes[2]]), tuple(word[-sizes[2] :])
    )
    start = data.draw(st.integers(-4, 4))
    # half the draws get a flaw: an empty tail or a symbol -1 or k somewhere
    flaw = data.draw(st.sampled_from((None, None, None, "empty", -1, space.k)))
    if flaw == "empty":
        left = ()
    elif flaw is not None:
        word = list(left + core + right)
        word[data.draw(st.integers(0, len(word) - 1))] = flaw
        left, core, right = (
            tuple(word[:len(left)]), tuple(word[len(left):-len(right)]), tuple(word[-len(right):])
        )
    expected = _per_symbol_make(space, left, core, right, start)
    if expected is None:
        with pytest.raises(ValueError):
            SymbolicPoint.make(space, left, core, right, start)
    else:
        assert SymbolicPoint.make(space, left, core, right, start) == expected


@pytest.mark.parametrize(
    "left, core, right, message",
    [
        ((0,), (-1,), (0,), "out of range"),
        ((0,), (2,), (0,), "out of range"),  # k = 2
        ((0,), (0.5,), (0,), "out of range"),
        ((0, 1), (1,), (0,), "core or junction"),  # seam 1 1 0
        ((0,), (), (1,), "periodic tail"),  # 11 on the right tail
    ],
)
def test_make_pinned_refusals(golden, left, core, right, message):
    with pytest.raises(ValueError, match=message):
        SymbolicPoint.make(golden, left, core, right, 0)


_I = np.int64


@pytest.mark.parametrize(
    "space, left, core, right, outcome",
    [
        # a float symbol is not a byte, even one equal to an int: refused
        # before any admissibility test, on a space with no forbidden pair too
        ("golden", (0,), (1.0,), (0,), "out of range"),
        ("golden", (0, 1.0), (), (0,), "out of range"),
        ("golden", (1.0, 0), (), (1, 0), "out of range"),
        ("golden", (0,), (1.0, 1), (0,), "out of range"),
        ("golden", (0,), (), (1.0,), "out of range"),
        ("full2", (0,), (1.0,), (1,), "out of range"),
        # bytes() takes numpy integers
        ("golden", (_I(0),), (_I(1),), (_I(0),), "<(0)*|1@0|(0)*>"),
        ("golden", (_I(0),), (_I(1), _I(1)), (_I(0),), "core or junction"),
    ],
)
def test_make_keeps_float_and_numpy_symbol_outcomes(space, left, core, right, outcome):
    space = MAKE_SPACES[space]
    if outcome.startswith("<"):
        assert repr(SymbolicPoint.make(space, left, core, right, 0)) == outcome
    else:
        with pytest.raises(ValueError, match=outcome):
            SymbolicPoint.make(space, left, core, right, 0)


def test_spaces_stop_at_the_symbol_cap():
    assert SYMBOL_CAP == 256
    with pytest.raises(ValueError, match=r"257 symbols, more than 256 \(SYMBOL_CAP\)"):
        SFTSpace.full_shift(SYMBOL_CAP + 1)
    # at the cap the last symbol is byte 255, and its forbidden pair is found
    last = SYMBOL_CAP - 1
    P = [[1] * SYMBOL_CAP for _ in range(SYMBOL_CAP)]
    P[last][0] = 0
    space = SFTSpace(SYMBOL_CAP, P)
    x = SymbolicPoint.make(space, (last,), (last, 1), (0,))
    assert x.window(-1, 3) == (last, last, 1, 0)
    with pytest.raises(ValueError, match="core or junction"):
        SymbolicPoint.make(space, (last,), (last,), (0,))
    with pytest.raises(ValueError, match="out of range"):
        SymbolicPoint.make(space, (0,), (SYMBOL_CAP,), (0,))


def _bfs_shortest_cycle(space, s):
    """Breadth-first search for the shortest cycle through ``s``, with the
    tie order of the library's search, kept as the reference for its memo."""
    parent = {t: s for t in space.successors(s)}
    if s in parent:
        return (s,)
    frontier = list(space.successors(s))
    while frontier:
        nxt = []
        for t in frontier:
            for u in space.successors(t):
                if u == s:
                    path = [t]
                    while path[-1] != s:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                if u not in parent:
                    parent[u] = t
                    nxt.append(u)
        frontier = nxt
    raise AssertionError(f"no cycle through {s}")


@pytest.mark.parametrize(
    "space", [SFTSpace.golden_mean(), staircase_space(3)], ids=["golden", "staircase3"]
)
def test_shortest_cycles_are_stored_per_space(space):
    fresh = SFTSpace(space.k, space.P)
    assert vars(fresh)["_cycles"] == {}  # filled on request, not at construction
    for s in range(space.k):
        assert _shortest_cycle(fresh, s) is _shortest_cycle(fresh, s)
    assert vars(fresh)["_cycles"] == {s: _bfs_shortest_cycle(space, s) for s in range(space.k)}
    assert fresh == space and hash(fresh) == hash(space)
    assert repr(fresh) == repr(space) and fresh.to_json() == space.to_json()


def test_space_hash_is_the_hash_of_its_fields():
    space = staircase_space(3)
    assert hash(space) == hash((space.k, space.P, space.rho))
    twin = SFTSpace(space.k, [list(row) for row in space.P], space.rho)
    assert twin == space and hash(twin) == hash(space)
    other = dataclasses.replace(space, rho=3)
    assert other != space and hash(other) == hash((space.k, space.P, 3)) != hash(space)


def _loop_canonical(left, core, right, core_start):
    """The canonical form as it was built one absorbed symbol and one junction
    step at a time, kept as the reference for the counting version."""
    left = _primitive(left)
    right = _primitive(right)
    while core and core[-1] == right[-1]:
        right = right[-1:] + right[:-1]
        core = core[:-1]
    while core and core[0] == left[0]:
        left = left[1:] + left[:1]
        core = core[1:]
        core_start += 1
    if core:
        return left, core, right, core_start
    p, q = len(left), len(right)
    m = math.lcm(p, q)
    if all(left[(-1 - i) % p] == right[(-1 - i) % q] for i in range(m)):
        w = tuple(right[(n - core_start) % q] for n in range(q))
        return w, (), w, 0
    while right[-1] == left[-1]:
        right = right[-1:] + right[:-1]
        left = left[-1:] + left[:-1]
        core_start -= 1
    return left, (), right, core_start


_WORDS = st.lists(st.integers(0, 2), min_size=1, max_size=6).map(tuple)


@example(left=(0, 1), core=(0, 1, 0), right=(1, 0), core_start=3)  # absorbed, fully periodic
@example(left=(1, 0, 0), core=(), right=(1, 1, 0), core_start=-2)  # junction moves 1
@example(left=(0, 1, 1), core=(1,), right=(0, 1, 1, 0, 1, 1), core_start=0)  # absorbed, junction
@example(left=(2, 0, 1, 2), core=(0, 1, 2, 0, 1, 2, 1), right=(1,), core_start=5)  # one absorbed
@given(_WORDS, st.lists(st.integers(0, 2), max_size=12).map(tuple), _WORDS, st.integers(-9, 9))
@settings(max_examples=400, deadline=None)
def test_canonical_matches_the_loop_reference(left, core, right, core_start):
    assert _canonical(left, core, right, core_start) == _loop_canonical(left, core, right, core_start)
    # a core cut from the tails' own tilings is absorbed whole, or nearly
    grown = _tiling(left, -3, 0) + core + _tiling(right, 0, 4)
    assert _canonical(left, grown, right, core_start - 3) == _loop_canonical(
        left, grown, right, core_start - 3)


def test_canonical_equality_matches_coordinates(full2, golden, rng):
    # canonical-form equality must coincide with coordinatewise agreement
    for space in (full2, golden):
        pts = [random_point(space, rng) for _ in range(60)]
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                window_eq = x.window(-40, 41) == y.window(-40, 41)
                assert (x == y) == window_eq


def test_canonical_junction_representations_collapse(full2):
    # ...000|111... written with different junction bookkeeping
    a = SymbolicPoint.make(full2, (0,), (), (1,), 0)
    b = SymbolicPoint.make(full2, (0,), (0, 1), (1,), -1)
    c = SymbolicPoint.make(full2, (0, 0), (), (1, 1), 0)
    assert a == b == c
    assert not hasattr(a, "__dict__")  # slotted: a sampling pass holds thousands of points
    # a fully periodic point handed over as a splice: x_n = (0,1)[n mod 2]
    p = SymbolicPoint.make(full2, (1, 0), (), (1, 0), 1)
    assert p.is_periodic and p.period == 2
    assert p == SymbolicPoint.periodic(full2, (0, 1))


# ----------------------------------------------------------------------- shift


def test_shift_fixed_point(full2):
    x = SymbolicPoint.fixed(full2, 0)
    assert x.shift(5) == x


def test_shift_two_periodic(full2):
    x = SymbolicPoint.periodic(full2, (0, 1))
    y = x.shift(1)
    assert y[0] == 1 and y == SymbolicPoint.periodic(full2, (1, 0))


def test_shift_core_bookkeeping(full2):
    x = SymbolicPoint.make(full2, (0,), (1,), (0,), 0)
    y = x.shift(3)
    # oracle: direct index arithmetic on materialised windows
    assert y.window(-6, 7) == tuple(x[n + 3] for n in range(-6, 7))
    assert y[-3] == 1 and y.shift(-3) == x


@given(st.integers(0, 10_000), st.sampled_from(["full2", "golden"]), st.integers(-12, 12),
       st.integers(-2, 25))
@settings(max_examples=80, deadline=None)
def test_window_matches_coordinates(seed, space_name, lo, length):
    space = SFTSpace.full_shift(2) if space_name == "full2" else SFTSpace.golden_mean()
    x = random_point(space, np.random.default_rng(seed))
    # oracle: one coordinate at a time; a negative length is an empty window
    assert x.window(lo, lo + length) == tuple(x[n] for n in range(lo, lo + length))


@given(st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=40, deadline=None)
def test_shift_group_action(n, m):
    space = SFTSpace.full_shift(2)
    x = SymbolicPoint.make(space, (0,), (1, 1, 0, 1), (0, 1), 0)
    assert x.shift(n).shift(m) == x.shift(n + m)
    assert x.shift(n).shift(-n) == x


# -------------------------------------------------------------------- distance


def test_distance_identity(full2):
    x = SymbolicPoint.fixed(full2, 0)
    assert distance(x, x) == 0


def test_distance_disagree_at_zero(full2):
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.fixed(full2, 1)
    assert distance(x, y) == 1


def test_distance_oracle(full2):
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.make(full2, (0,), (1,), (0,), 3)
    # oracle: compare coordinates one by one
    n = 0
    while x[n] == y[n] and x[-n] == y[-n]:
        n += 1
    assert n == 3
    assert distance(x, y) == 2 ** (-3) == 0.125


def test_distance_scales_with_rho():
    space = SFTSpace.full_shift(2, rho=Fraction(3, 1))
    x = SymbolicPoint.fixed(space, 0)
    y = SymbolicPoint.make(space, (0,), (1,), (0,), 2)
    assert distance(x, y) == Fraction(1, 9)


def test_ultrametric_and_expansivity(full2, rng):
    pts = [random_point(full2, rng) for _ in range(25)]
    rho = float(full2.rho)
    for x in pts:
        for y in pts:
            for z in pts:
                assert distance(x, z) <= max(distance(x, y), distance(y, z)) + 1e-15
    for x in pts:
        for y in pts:
            if x == y:
                continue
            n = distance_exponent(x, y)
            # expansivity: shifting the first disagreement to the origin
            assert distance(x.shift(n), y.shift(n)) == 1 or distance(x.shift(-n), y.shift(-n)) == 1
            assert distance(x.shift(1), y.shift(1)) <= rho * distance(x, y) + 1e-15


CODE_SPACES = {
    "full2": SFTSpace.full_shift(2),
    "golden": SFTSpace.golden_mean(),
    "full3": SFTSpace.full_shift(3),
    "full12": SFTSpace.full_shift(12),  # four bits per symbol
}


def _periodic_of_period(space, p, rng):
    while True:
        w = [int(rng.integers(space.k))]
        while len(w) < p:
            w.append(int(rng.choice(space.successors(w[-1]))))
        if space.admissible_cycle(w):
            pt = SymbolicPoint.periodic(space, w)
            if pt.period == p:
                return pt


def _mixed_points(space, seed):
    """Sampled, periodic (periods 1-6), homoclinic, shifted and resampled
    points, points with unequal tails, points near the sampled ones, and
    duplicates."""
    rng = np.random.default_rng(seed)
    mu = MarkovMeasure.uniform(space)
    sampled = sample_measure(mu, 8, seed, depth=12) + sample_measure(mu, 4, seed + 1, depth=3)
    periodic = [_periodic_of_period(space, p, rng) for p in range(1, 7) for _ in range(2)]
    homoclinic = homoclinic_points(SymbolicPoint.fixed(space, 0), 2)
    homoclinic = [homoclinic[int(i)] for i in rng.choice(len(homoclinic), 8, replace=False)]
    tails = [random_point(space, rng) for _ in range(8)]
    shifted = [x.shift(n) for x, n in zip(sampled[:4] + homoclinic[:4] + tails[:4],
                                          (1, -1, 3, -5, 2, -2, 4, -3, 7, -7, 1, -1))]
    resampled = [resample_past(mu, x, rng, depth=5) for x in sampled[:4]]
    resampled += [resample_future(mu, x, rng, depth=5) for x in sampled[:4]]
    # close to a sampled point: agree with it on |n| <= depth
    near = [_complete_word(space, x.window(-d, d + 1), -d) for x, d in zip(sampled, range(1, 9))]
    pts = sampled + periodic + homoclinic + tails + shifted + resampled + near
    dups = [dataclasses.replace(pts[int(i)]) for i in rng.choice(len(pts), 6, replace=False)]
    return pts + dups


@pytest.mark.parametrize("name", sorted(CODE_SPACES))
def test_agreement_codes_match_distance_exponent(name):
    pts = _mixed_points(CODE_SPACES[name], 17)
    codes, exponent = agreement_codes(pts)
    for x, cx in zip(pts, codes):
        for y, cy in zip(pts, codes):
            assert exponent(cx, cy) == distance_exponent(x, y), (x, y)


def test_agreement_codes_reach_the_fine_wilf_radius(full2):
    # tails of periods 5 and 3 agree on 7 coordinates past the cores: a radius
    # of reach plus one tail period calls these distinct points equal
    x = SymbolicPoint.make(full2, (1, 0, 0, 1, 0), (1, 1), (0, 1, 0, 0, 1), -1)
    y = SymbolicPoint.make(full2, (0, 1, 0), (1, 1), (0, 1, 0), -1)
    codes, exponent = agreement_codes([x, y])
    assert distance_exponent(x, y) == 7
    assert exponent(*codes) == 7


EXPONENT_POOLS = {
    "full2": _mixed_points(CODE_SPACES["full2"], 23),
    "golden": _mixed_points(CODE_SPACES["golden"], 29),
    "full3-unequal-tails": unequal_tail_pool(),
}


@given(st.sampled_from(sorted(EXPONENT_POOLS)), st.lists(st.integers(0, 10**6), min_size=1,
                                                         max_size=40))
@example("full2", [0])
@example("golden", [3, 3])
@settings(max_examples=150)
def test_agreement_exponents_match_distance_exponent(name, picks):
    # picks may repeat; the mixed pools also hold equal points as distinct objects
    pool = EXPONENT_POOLS[name]
    pts = [pool[i % len(pool)] for i in picks]
    got = agreement_exponents(pts)
    assert got.dtype == np.int32 and got.shape == (len(pts), len(pts))
    want = [[-1 if n is None else n for n in (distance_exponent(x, y) for y in pts)] for x in pts]
    assert got.tolist() == want


def test_agreement_codes_refuse_mixed_spaces(full2, golden):
    with pytest.raises(ValueError, match="different spaces"):
        agreement_codes([SymbolicPoint.fixed(full2, 0), SymbolicPoint.fixed(golden, 0)])


# --------------------------------------------------------------------- bracket


def test_bracket_idempotent(full2, rng):
    x = random_point(full2, rng)
    assert bracket(x, x) == x


def test_bracket_splice_examples(full2):
    y = SymbolicPoint.fixed(full2, 0)
    z = SymbolicPoint.make(full2, (1,), (0,), (0,), 0)  # ...111 0 000...
    assert bracket(y, z) == z  # z already agrees with y on n >= 0
    y2 = SymbolicPoint.make(full2, (0,), (1,), (0,), 0)
    z2 = SymbolicPoint.periodic(full2, (1,))
    w = bracket(y2, z2)
    assert w.window(-3, 4) == (1, 1, 1, 1, 0, 0, 0)


def test_bracket_membership(full2, golden, rng):
    for space in (full2, golden):
        for _ in range(40):
            y, z = random_point(space, rng), random_point(space, rng)
            if y[0] != z[0]:
                with pytest.raises(CylinderMismatch):
                    bracket(y, z)
                continue
            w = bracket(y, z)
            assert w.window(0, 30) == y.window(0, 30)
            assert w.window(-30, 1) == z.window(-30, 1)


def _per_coordinate_bracket(y, z):
    """bracket with its word read one coordinate at a time."""
    if y[0] != z[0]:
        raise CylinderMismatch(f"coordinate-0 symbols differ: {y[0]} vs {z[0]}")
    lo = min(z.core_start, 0)
    hi = max(y.core_start + len(y.core), 0)
    return splice(z, tuple((z[n] if n <= 0 else y[n]) for n in range(lo, hi)), lo, y)


@pytest.mark.parametrize("name", sorted(CODE_SPACES))
def test_bracket_matches_per_coordinate_reference(name):
    pts = _mixed_points(CODE_SPACES[name], 23)
    built = 0
    for y in pts:
        for z in pts:
            if y[0] != z[0]:
                with pytest.raises(CylinderMismatch):
                    bracket(y, z)
                continue
            assert bracket(y, z) == _per_coordinate_bracket(y, z), (y, z)
            built += 1
    assert built > len(pts)


# ------------------------------------------------------------- periodic points


def test_periodic_points_full_shift(full2):
    pts = periodic_points(full2, 1)
    assert pts == [SymbolicPoint.fixed(full2, 0), SymbolicPoint.fixed(full2, 1)]
    pts2 = periodic_points(full2, 2)
    assert len(pts2) == 4  # trace(P^2) = 4 fixed points of sigma^2


def test_periodic_points_no_fixed_point():
    flip = SFTSpace(2, ((0, 1), (1, 0)))
    assert periodic_points(flip, 1) == []
    assert len(periodic_points(flip, 2)) == 2


def fixed_point_count(space, n):
    """Number of points fixed by sigma**n: trace of the n-th matrix power."""
    P = np.array(space.P, dtype=object)
    return int(np.trace(np.linalg.matrix_power(P, n)))


@pytest.mark.parametrize("name", ["full2", "golden"])
def test_periodic_counts_match_trace(name, full2, golden):
    space = full2 if name == "full2" else golden
    pts = periodic_points(space, 8)
    for n in range(1, 9):
        count = sum(1 for p in pts if n % p.period == 0)
        assert count == fixed_point_count(space, n)


def test_enumerations_stop_at_their_cap(full2, monkeypatch):
    from cocyclelab import symbolic

    monkeypatch.setattr(symbolic, "ENUMERATION_CAP", 3)
    with pytest.raises(ResourceLimit, match="homoclinic enumeration exceeded cap 3"):
        homoclinic_points(SymbolicPoint.fixed(full2, 0), 2)
    with pytest.raises(ResourceLimit, match="periodic enumeration exceeded cap 3"):
        periodic_points(full2, 3)
    assert len(list(full2.words(1))) == 2
    with pytest.raises(ResourceLimit, match="words of length 2 exceeded enumeration cap 3"):
        list(full2.words(2))


@pytest.mark.parametrize("space", [SFTSpace.full_shift(2), SFTSpace.golden_mean(),
                                   SFTSpace(3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))],
                         ids=["full2", "golden", "sft3"])
def test_words_match_the_filtered_product(space, monkeypatch):
    """Every admissible word in lexicographic order; past the cap, the first
    ENUMERATION_CAP of them and then the cap's error."""
    import itertools

    from cocyclelab import symbolic

    for length in range(8):
        want = [w for w in itertools.product(range(space.k), repeat=length)
                if space.admissible_word(w)]
        assert list(space.words(length)) == want
        cap = max(1, len(want) // 3)
        got = []
        with monkeypatch.context() as mp:
            mp.setattr(symbolic, "ENUMERATION_CAP", cap)
            if len(want) > cap:
                with pytest.raises(ResourceLimit, match=f"length {length} exceeded .* cap {cap}"):
                    got.extend(space.words(length))
                assert got == want[:cap]
            else:
                assert list(space.words(length)) == want


# ------------------------------------------------------------------ homoclinic


def test_homoclinic_empty_core(full2, golden):
    x0 = SymbolicPoint.fixed(full2, 0)
    assert homoclinic_points(x0, 0) == [x0]
    # the backward reference sigma x0 ends in 1 and x0 starts with 1: 11 is forbidden
    assert homoclinic_points(SymbolicPoint.periodic(golden, (1, 0)), 0) == []


def test_homoclinic_core_one(full2):
    x0 = SymbolicPoint.fixed(full2, 0)
    pts = homoclinic_points(x0, 1)
    expect = {
        x0,
        SymbolicPoint.make(full2, (0,), (1,), (0,), -1),
        SymbolicPoint.make(full2, (0,), (1,), (0,), 0),
    }
    assert set(pts) == expect


def test_homoclinic_golden_isolated_ones(golden):
    x0 = SymbolicPoint.fixed(golden, 0)
    pts = homoclinic_points(x0, 2)
    for y in pts:
        w = y.window(-4, 4)
        assert (1, 1) not in tuple(zip(w, w[1:]))
    # oracle: admissible fillings of the window [-2, 2) with <= 2 ones
    assert len(pts) == 8


def test_homoclinic_points_are_asymptotic(full2, golden):
    for space, core in ((full2, 3), (golden, 4)):
        x0 = SymbolicPoint.fixed(space, 0)
        for y in homoclinic_points(x0, core):
            assert stable_agreement_onset(y, x0) <= core
            assert unstable_agreement_onset(y, x0) <= core + 1


def test_homoclinic_w_set_variant(golden):
    x0 = SymbolicPoint.periodic(golden, (0, 1))
    pts = homoclinic_points(x0, 4)
    left_ref = x0.shift(1)
    for y in pts:
        stable_agreement_onset(y, x0)
        unstable_agreement_onset(y, left_ref)
    assert len(pts) > 0


def test_homoclinic_period_two_enumeration_pinned(golden):
    # the class build_transfer samples for the base (01)*, whose backward tail
    # follows sigma(x0) = (10)*
    pts = homoclinic_points(SymbolicPoint.periodic(golden, (0, 1)), 4)
    digest = hashlib.sha256("\n".join(map(repr, pts)).encode()).hexdigest()
    assert len(pts) == 38
    assert digest == "97d62dd9156cbd01eea57060f0df956c7470cf6298afa0ce25d6695635ee980d"


# ------------------------------------------------------------------- splicing


def test_splice_reads_each_source_on_its_periodic_side(full2):
    x = SymbolicPoint.make(full2, (0,), (1, 1), (0,), 0)  # ...0 11 0...
    one = SymbolicPoint.fixed(full2, 1)
    y = splice(x, (0,), 0, one)
    assert y.window(-3, 4) == (0, 0, 0, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        splice(x, (0,), 1, one)  # x is not periodic below 1
    with pytest.raises(ValueError):
        splice(one, (0,), -1, x)  # nor from 0 on


# --------------------------------------------------------------------- closing


def test_closing_periodic_point_is_fixed(full2):
    y = SymbolicPoint.periodic(full2, (0, 1, 1, 0, 1, 0))
    assert closing_point(y, 3) == y


def test_closing_word_extraction(full2):
    y = SymbolicPoint.make(full2, (0,), (1,), (0,), 0)
    z = closing_point(y, 3)
    # oracle: repeating word y_-3..y_2 anchored in place
    assert z.window(-3, 3) == y.window(-3, 3)
    assert z.shift(6) == z
    assert z.window(-3, 9) == y.window(-3, 3) * 2


def test_closing_inadmissible_loop(golden):
    y = SymbolicPoint.make(golden, (0,), (1, 0, 0, 1), (0,), -2)
    # y_{n-1} = 1 and y_{-n} = 1 for n = 2
    assert y[1] == 1 and y[-2] == 1
    for fn in (closing_point, verify_closing_bound):
        with pytest.raises(InadmissibleLoop, match=r"^wrap pair \(1, 1\) is forbidden$"):
            fn(y, 2)


def test_closing_bound_exact(full2, golden):
    for space, core in ((full2, 3), (golden, 4)):
        x0 = SymbolicPoint.fixed(space, 0)
        for y in homoclinic_points(x0, core)[:40]:
            for n in (2, 3, 4):
                try:
                    rows, ok = verify_closing_bound(y, n)
                except InadmissibleLoop:
                    continue
                assert ok, (y, n, rows)


def _per_shift_closing_bound(y, n):
    """verify_closing_bound as one distance_exponent per shifted pair."""
    z = closing_point(y, n)
    m = distance_exponent(y.shift(n), y.shift(-n))
    rows = []
    ok = True
    for j in range(0, 2 * n + 1):
        obs = distance_exponent(y.shift(j - n), z.shift(j - n))
        if m is None:
            required = None
            good = obs is None
        else:
            required = min(j, 2 * n - j) + m
            good = obs is None or obs >= required
        rows.append((j, obs, required))
        ok = ok and good
    return rows, ok


def _outcome(fn, *args):
    """fn's result, or the type and message of the refusal it raised."""
    try:
        return fn(*args)
    except (InadmissibleLoop, NotStablePair, NotUnstablePair) as e:
        return (type(e).__name__, str(e))


def _closing_points(space, seed):
    """Homoclinic points of orbits of periods 1-3, periodic points of period
    <= 5 and sampled points, each shifted by 0, 3 and -5."""
    rng = np.random.default_rng(seed)
    periodic = periodic_points(space, 5)
    pts = []
    for p in (1, 2, 3):
        x0 = next((x for x in periodic if x.period == p), None)
        if x0 is not None:
            hom = homoclinic_points(x0, 2)
            pts += [hom[int(i)] for i in rng.choice(len(hom), min(8, len(hom)), replace=False)]
    pts += [periodic[int(i)] for i in rng.choice(len(periodic), min(10, len(periodic)), replace=False)]
    mu = MarkovMeasure.uniform(space)
    pts += sample_measure(mu, 6, seed, depth=9) + sample_measure(mu, 3, seed + 1, depth=2)
    return [x.shift(t) for x in pts for t in (0, 3, -5)]


@pytest.mark.parametrize("name", ["full2", "golden", "full3"])
def test_closing_bound_matches_per_shift_reference(name):
    refused = 0
    for y in _closing_points(CODE_SPACES[name], 31):
        for n in range(1, 10):
            got = _outcome(verify_closing_bound, y, n)
            assert got == _outcome(_per_shift_closing_bound, y, n), (y, n)
            refused += got[0] == "InadmissibleLoop"
    if name == "golden":  # 11 is forbidden, so some loops cannot close
        assert refused > 0


# each case needs one term of a scan limit: the rows of a scan cut short there
# differ, while ok stays True, so only the rows show the cut
@pytest.mark.parametrize(
    "left, core, right, start, n, rows",
    [
        # needs 2n in hi and in lo
        ((0,), (1,), (0,), -3, 4,
         [(0, 7, 1), (1, 8, 2), (2, 7, 3), (3, 6, 4), (4, 5, 5),
          (5, 4, 4), (6, 3, 3), (7, 2, 2), (8, 1, 1)]),
        # needs len(right) in hi
        ((0, 1, 0), (1, 0, 0, 0), (0, 0, 1), -3, 1, [(0, 2, 2), (1, 3, 3), (2, 2, 2)]),
        # needs len(left) in lo
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), -2, 2,
         [(0, 6, 4), (1, 7, 5), (2, 6, 6), (3, 5, 5), (4, 4, 4)]),
    ],
)
def test_closing_bound_scan_limits(full2, left, core, right, start, n, rows):
    y = SymbolicPoint.make(full2, left, core, right, start)
    assert verify_closing_bound(y, n) == (rows, True)
    assert _per_shift_closing_bound(y, n) == (rows, True)


def test_closing_bound_pinned_rows(full2):
    y = SymbolicPoint.make(full2, (0,), (1,), (0,), 0)
    tight = [(0, 3, 3), (1, 4, 4), (2, 5, 5), (3, 6, 6), (4, 5, 5), (5, 4, 4), (6, 3, 3)]
    assert verify_closing_bound(y, 3) == (tight, True)  # the bound is tight on every row
    p = SymbolicPoint.periodic(full2, (0, 1, 1, 0, 1, 0))
    assert verify_closing_bound(p, 3) == ([(j, None, None) for j in range(7)], True)


def test_pseudo_orbit_loop(full2):
    y = SymbolicPoint.make(full2, (0,), (1,), (0,), 0)
    po = PseudoOrbit.closing_loop(y, 3)
    assert len(po.points) == 7
    assert po.eps == distance(y.shift(3), y.shift(-3))
    with pytest.raises(ValueError):
        PseudoOrbit((y, y.shift(5)), 1e-9)


# -------------------------------------------------------------------- measures


def test_markov_uniform_stationary(golden):
    mu = MarkovMeasure.uniform(golden)
    pi = np.array(mu.pi)
    Q = np.array(mu.Q)
    assert np.allclose(pi @ Q, pi)
    assert abs(sum(mu.pi) - 1) < 1e-12
    # oracle: stationary vector of [[1/2,1/2],[1,0]] is (2/3, 1/3)
    assert np.allclose(pi, [2 / 3, 1 / 3])


def test_markov_validation(full2):
    with pytest.raises(ValueError):
        MarkovMeasure(full2, ((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5))  # support mismatch


def test_sample_measure_deterministic_and_lln(full2):
    mu = MarkovMeasure.uniform(full2)
    a = sample_measure(mu, 50, seed=5)
    b = sample_measure(mu, 50, seed=5)
    assert a == b
    big = sample_measure(mu, 10_000, seed=11)
    freq = sum(1 for x in big if x[0] == 0) / len(big)
    assert abs(freq - 0.5) <= 0.02
    assert sample_measure(mu, 0, seed=1) == []
    with pytest.raises(ValueError):
        sample_measure(mu, 1, seed=1, depth=0)


def test_resampling_stays_on_local_sets(full2, rng):
    mu = MarkovMeasure.uniform(full2)
    x = sample_measure(mu, 1, seed=3)[0]
    fut = resample_future(mu, x, rng)
    assert fut.window(-20, 1) == x.window(-20, 1)
    past = resample_past(mu, x, rng)
    assert past.window(0, 21) == x.window(0, 21)


# ------------------------------------------------- samplers against rng.choice


def _choice_sample_measure(mu, count, seed, depth):
    """The rng.choice loop the samplers replaced, kept as their reference."""
    rng = np.random.default_rng(seed)
    k = mu.space.k
    pi = np.array(mu.pi)
    Q = np.array(mu.Q)
    out = []
    for _ in range(count):
        syms = [int(rng.choice(k, p=pi))]
        for _ in range(depth - 1):
            syms.append(int(rng.choice(k, p=Q[syms[-1]])))
        out.append(_complete_word(mu.space, tuple(syms), -(depth // 2)))
    return out


def _choice_resample_future(mu, x, rng, depth):
    lo = min(x.core_start, 0)
    Q = np.array(mu.Q)
    syms = list(x.window(lo, 1))
    for _ in range(depth):
        syms.append(int(rng.choice(mu.space.k, p=Q[syms[-1]])))
    left = tuple(x.left[(i + lo - x.core_start) % len(x.left)] for i in range(len(x.left)))
    cyc_r = _shortest_cycle(mu.space, syms[-1])
    return SymbolicPoint.make(mu.space, left, tuple(syms), _rotate(cyc_r, 1), lo)


def _choice_resample_past(mu, x, rng, depth):
    hi = max(x.core_start + len(x.core), 0)
    B = np.array(mu.backward_kernel())
    rev = [x[0]]
    for _ in range(depth):
        rev.append(int(rng.choice(mu.space.k, p=B[rev[-1]])))
    syms = list(reversed(rev)) + list(x.window(1, hi + 1))
    r0 = x.core_start + len(x.core)
    right = tuple(x.right[(i + hi + 1 - r0) % len(x.right)] for i in range(len(x.right)))
    cyc_l = _shortest_cycle(mu.space, syms[0])
    return SymbolicPoint.make(mu.space, cyc_l, tuple(syms), right, -depth)


SAMPLER_SPACES = {
    "full2": SFTSpace.full_shift(2),
    "full3": SFTSpace.full_shift(3),
    "golden": SFTSpace.golden_mean(),
}


def _random_markov(space, seed):
    r = np.random.default_rng(seed)
    Q = (r.random((space.k, space.k)) + 0.05) * np.array(space.P)
    return MarkovMeasure.from_matrix(space, Q / Q.sum(axis=1, keepdims=True))


@example(name="full2", q_seed=0, seed=0, depth=1)
@given(
    st.sampled_from(sorted(SAMPLER_SPACES)),
    st.integers(0, 10_000),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_samplers_match_rng_choice(name, q_seed, seed, depth):
    mu = _random_markov(SAMPLER_SPACES[name], q_seed)
    pts = sample_measure(mu, 3, seed, depth=depth)
    assert pts == _choice_sample_measure(mu, 3, seed, depth)
    # the samplers and their references read two generators in one state
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for x in pts:
        assert resample_future(mu, x, new, depth) == _choice_resample_future(mu, x, ref, depth)
        assert new.random() == ref.random()
        assert resample_past(mu, x, new, depth) == _choice_resample_past(mu, x, ref, depth)
        assert new.random() == ref.random()


# the two measures perfbench's sampling workload draws from
SAMPLING_MEASURES = {
    "full2-uniform": MarkovMeasure.uniform(SFTSpace.full_shift(2)),
    "golden-markov": MarkovMeasure.from_matrix(SFTSpace.golden_mean(), [[0.35, 0.65], [1.0, 0.0]]),
}


@pytest.mark.parametrize(
    "mu", [_random_markov(SAMPLER_SPACES["full3"], 1), SAMPLING_MEASURES["golden-markov"]],
    ids=["full3", "golden"],
)
@pytest.mark.parametrize("depth", [1, 2, 64])
def test_sample_measure_blocks_match_rng_choice(mu, depth):
    # the reference reads draw after draw, so fewer draws are a prefix of more;
    # the counts sit on either side of the block edges
    assert SAMPLE_BLOCK == 256
    ref = _choice_sample_measure(mu, 600, 9, depth)
    for count in (0, 1, 255, 256, 257, 600):
        assert sample_measure(mu, count, 9, depth=depth) == ref[:count]


# sha256 of the reprs of 1,500 depth-64 draws at seed 5000, then resample_future
# and resample_past of every draw from default_rng(5000); a change to the
# stream, the walk or the canonical form moves them
SAMPLING_PINS = {
    "full2-uniform": "fc62131963acce78a4cbf6f56c47cc33d4077b33a352c35a33ac452b9b217291",
    "golden-markov": "b7a91a99dadb0063e1700184fe29253a2bc56a496406cdf5f200d252c7750a05",
}


@pytest.mark.parametrize("name", sorted(SAMPLING_PINS))
def test_sampling_pinned(name):
    mu = SAMPLING_MEASURES[name]
    pts = sample_measure(mu, 1500, 5000, depth=64)
    rng = np.random.default_rng(5000)
    futures = [resample_future(mu, x, rng) for x in pts]
    pasts = [resample_past(mu, x, rng) for x in pts]
    digest = hashlib.sha256("\n".join(map(repr, pts + futures + pasts)).encode()).hexdigest()
    assert digest == SAMPLING_PINS[name]


class _ScriptedGenerator(np.random.Generator):
    """A generator whose uniforms are given in advance; ``choice`` reads them
    through ``random`` too, so both samplers invert the same values."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = list(uniforms)

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = np.array(self.uniforms[:n])
        del self.uniforms[:n]
        return out.reshape(() if size is None else size)


@pytest.mark.parametrize("name", sorted(SAMPLER_SPACES))
def test_samplers_match_rng_choice_on_table_entries(name, monkeypatch):
    # uniforms equal to table entries tell bisect_right from bisect_left, and
    # a table divided by its last entry from one that is not
    mu = _random_markov(SAMPLER_SPACES[name], 7)
    edges = {0.0, 1 - 2**-53}
    for row in (mu.pi, *mu.Q, *mu.backward_kernel()):
        cdf = np.cumsum(row)
        edges.update((cdf / cdf[-1]).tolist())
    edges = sorted(e for e in edges if e < 1)
    pick = np.random.default_rng(3)
    depth = 9
    for _ in range(30):
        block = pick.choice(edges, size=3 * depth).tolist()
        # sample_measure and its reference both seed a generator of their own
        monkeypatch.setattr(np.random, "default_rng", lambda seed, b=block: _ScriptedGenerator(b))
        pts = sample_measure(mu, 3, 0, depth=depth)
        assert pts == _choice_sample_measure(mu, 3, 0, depth)
        for x in pts:
            new, ref = _ScriptedGenerator(block), _ScriptedGenerator(block)
            assert resample_future(mu, x, new, depth) == _choice_resample_future(mu, x, ref, depth)
            assert resample_past(mu, x, new, depth) == _choice_resample_past(mu, x, ref, depth)
            assert new.uniforms == ref.uniforms == block[2 * depth :]


def test_sampler_tables_keep_choice_checks(full2):
    # pi is from_matrix's stationary vector moved by 4e-10: the measure passes
    # its own 1e-9 checks, but backward row 1 sums to 1 - 1.0e-7, which
    # rng.choice refuses (tolerance sqrt(eps) = 1.5e-8)
    Q = ((0.999, 0.001), (0.5, 0.5))
    pi = MarkovMeasure.from_matrix(full2, Q).pi
    assert pi == (0.998003992015968, 0.0019960079840319377)
    moved = (pi[0] - 4e-10, pi[1] + 4e-10)
    assert abs(sum(moved[j] * Q[j][1] for j in range(2)) / moved[1] - (1 - 1.0e-7)) < 1e-9
    # the measure builds its backward table at construction, so it is refused there
    with pytest.raises(ValueError, match="do not sum to 1"):
        MarkovMeasure(full2, Q, moved)
    # the same checks as rng.choice on every kind of bad row
    for p in ((0.5, float("nan")), (1.5, -0.5), (0.5, 0.5 - 1e-7)):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, p=p)
        with pytest.raises(ValueError):
            _cumulative(p)


def test_measure_refuses_what_the_samplers_refuse(full2, golden):
    # each passes the measure's own checks: a NaN start vector, and a negative
    # entry where the transition matrix forbids the step anyway
    with pytest.raises(ValueError, match="NaN"):
        MarkovMeasure(full2, ((0.5, 0.5), (0.5, 0.5)), (math.nan, math.nan))
    with pytest.raises(ValueError, match="not non-negative"):
        MarkovMeasure.from_matrix(golden, ((0.5, 0.5), (1.1, -0.1)))


def test_sampler_tables_stay_out_of_identity(golden):
    mu = MarkovMeasure.uniform(golden)
    fresh = MarkovMeasure.uniform(golden)
    resample_past(mu, sample_measure(mu, 1, seed=0)[0], np.random.default_rng(0))
    assert {"_start_cdf", "_forward_cdf", "_backward_cdf"} <= set(vars(mu))
    assert mu == fresh and hash(mu) == hash(fresh)
    assert repr(mu) == repr(fresh)


# ------------------------------------------------------------------------ JSON


def test_space_and_measure_json_roundtrip(golden):
    # a measure has no document of its own: experiments build it from the space's
    space = SFTSpace.from_json(golden.to_json())
    assert space == golden
    assert MarkovMeasure.uniform(space) == MarkovMeasure.uniform(golden)


def test_point_json_roundtrip(full2, rng):
    # the document rigidity.json holds per repaired point names make's arguments
    for _ in range(10):
        x = random_point(full2, rng)
        assert SymbolicPoint.make(full2, **x.to_json()) == x


def test_stable_onset_errors(full2):
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.fixed(full2, 1)
    with pytest.raises(NotStablePair):
        stable_agreement_onset(x, y)


def _per_coordinate_stable_onset(x, y):
    hi = max(x.core_start + len(x.core), y.core_start + len(y.core), 0)
    span = math.lcm(len(x.right), len(y.right))
    if any(x[m] != y[m] for m in range(hi, hi + span)):
        raise NotStablePair("forward tails differ")
    onset = 0
    for m in range(hi):
        if x[m] != y[m]:
            onset = m + 1
    return onset


def _per_coordinate_unstable_onset(x, y):
    lo = min(x.core_start, y.core_start, 0)
    span = math.lcm(len(x.left), len(y.left))
    if any(x[m] != y[m] for m in range(lo - span, lo)):
        raise NotUnstablePair("backward tails differ")
    onset = 0
    for m in range(lo, 1):
        if x[m] != y[m]:
            onset = max(onset, -m + 1)
    return onset


@pytest.mark.parametrize("name", sorted(CODE_SPACES))
def test_agreement_onsets_match_per_coordinate_reference(name):
    pts = _mixed_points(CODE_SPACES[name], 29)
    found = {"stable": 0, "unstable": 0}
    for x in pts:
        for y in pts:
            for side, fn, ref in (
                ("stable", stable_agreement_onset, _per_coordinate_stable_onset),
                ("unstable", unstable_agreement_onset, _per_coordinate_unstable_onset),
            ):
                got = _outcome(fn, x, y)
                assert got == _outcome(ref, x, y), (side, x, y)
                found[side] += isinstance(got, int) and got > 0
    assert min(found.values()) > 0, found
