import functools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cocyclelab import (
    CocycleSpec,
    MarkovMeasure,
    PLMap,
    SFTSpace,
    SymbolicPoint,
    WindowRule,
    check_bounded_distortion,
    check_domination,
    compose,
    fb_family,
    holder_const_cocycle,
    invert,
    iterate,
    power_domination,
    resample_future,
    resample_past,
    uniform_distance,
)
from cocyclelab.cocycles import (
    TABLE_ENTRY_CAP,
    DistortionReport,
    DominationReport,
    _word_generators,
    orbit_product,
    quotient_numerators,
    quotients,
)
from cocyclelab.errors import ResourceLimit
from cocyclelab.fixtures import (
    conjugated_pair,
    decaying_rotation_rule,
    expanding_cocycle,
    near_identity_plmap,
    pl_dominated_cocycle,
    rotation_cocycle,
    staircase_space,
    telescoping_cocycle,
)

from conftest import (
    blend_with_identity, float_cocycle, float_map, random_point, random_rotation_table,
)


def constant_cocycle(space, m, window=0):
    return CocycleSpec(space, window, {w: m for w in space.words(2 * window + 1)})


def reference_generators(c, x, n):
    """The maps whose prefix products are f^1_x .. f^n_x, read point by point:
    the generators at x, sigma x, ... for n > 0, and for n < 0 the inverse
    generators at sigma^-1 x, sigma^-2 x, ..."""
    if n >= 0:
        return [c.generator(x.shift(j)) for j in range(n)]
    return [invert(c.generator(x.shift(-j))) for j in range(1, 1 - n)]


# ------------------------------------------------------------------ generators


def test_generator_lookup(full2):
    table = {b"\x00": PLMap.identity(), b"\x01": PLMap.rotation(Fraction(1, 4))}
    c = CocycleSpec(full2, 0, table)
    x = SymbolicPoint.fixed(full2, 1)
    assert c.generator(x) == PLMap.rotation(Fraction(1, 4))


def test_generator_window_property(full2, rng):
    c = rotation_cocycle(full2, 1, seed=2)
    x = random_point(full2, rng)
    y = random_point(full2, rng)
    if x.window(-1, 2) == y.window(-1, 2):
        assert c.generator(x) == c.generator(y)


def test_table_must_cover_admissible_words(golden):
    with pytest.raises(ValueError, match=re.escape("missing=[(1,)] extra=[]")):
        CocycleSpec(golden, 0, {b"\x00": PLMap.identity()})
    extra = "missing=[] extra=[(0, 1, 1), (1, 1, 0), (1, 1, 1)]"
    with pytest.raises(ValueError, match=re.escape(extra)):
        CocycleSpec(golden, 1, {w: PLMap.identity() for w in SFTSpace.full_shift(2).words(3)})
    # as many entries as words, one of them not a word
    with pytest.raises(ValueError, match=re.escape("missing=[(1,)] extra=[(2,)]")):
        CocycleSpec(golden, 0, {b"\x00": PLMap.identity(), b"\x02": PLMap.identity()})
    # a key that is not bytes is named, not listed as both missing and extra
    with pytest.raises(ValueError, match=re.escape("table key (1,): words must be bytes")):
        CocycleSpec(golden, 0, {b"\x00": PLMap.identity(), (1,): PLMap.identity()})
    with pytest.raises(ValueError, match=re.escape("table key (0,): words must be bytes")):
        CocycleSpec(golden, 0, {(0,): PLMap.identity(), (1,): PLMap.identity()})


def test_tables_stop_at_the_entry_cap(full2, monkeypatch):
    from cocyclelab import cocycles
    from cocyclelab.experiments import _rotation_family

    # theorem-a's default G (window 6 on the full 2-shift) stays under the cap
    _, G, _ = _rotation_family(full2, 0, 5)
    assert len(G.table) == 2**13 <= TABLE_ENTRY_CAP
    with pytest.raises(ResourceLimit, match="conjugated_pair: a window-7 table"):
        conjugated_pair(rotation_cocycle(full2, 1, 0), decaying_rotation_rule(full2, 6))
    # window 7 needs 2**15 words: refused before one is enumerated
    monkeypatch.setattr(SFTSpace, "words", lambda *a: pytest.fail("words were enumerated"))
    for build, where in (
        (lambda: CocycleSpec(full2, 7, {}), "CocycleSpec"),
        (lambda: rotation_cocycle(full2, 7, 0), "rotation_cocycle"),
        (lambda: pl_dominated_cocycle(full2, 7, 0.4, 0), "pl_dominated_cocycle"),
        (lambda: decaying_rotation_rule(full2, 7), "decaying_rotation_rule"),
    ):
        with pytest.raises(ResourceLimit, match=f"{where}: a window-7 table .* 16384 entries"):
            build()
    monkeypatch.undo()
    # the count is exact: 610 golden-mean words of length 13, 2**13 full-shift ones
    golden = SFTSpace.golden_mean()
    for space, count in ((golden, 610), (full2, 2**13)):
        assert len(list(space.words(13))) == count
        monkeypatch.setattr(cocycles, "TABLE_ENTRY_CAP", count)
        assert len(list(cocycles.table_words(space, 6, "here"))) == count
        monkeypatch.setattr(cocycles, "TABLE_ENTRY_CAP", count - 1)
        with pytest.raises(ResourceLimit, match="here: a window-6 table"):
            cocycles.table_words(space, 6, "here")


# ------------------------------------------------------------------- iteration


def test_iterate_zero_is_identity(full2, rng):
    c = rotation_cocycle(full2, 1, seed=4)
    assert iterate(c, random_point(full2, rng), 0) == PLMap.identity()


def test_iterate_rotation_angle_sum(full2, rng):
    c = rotation_cocycle(full2, 1, seed=4)
    x = random_point(full2, rng)
    for n in (1, 3, 7):
        expected = sum(c.generator(x.shift(j)).angle for j in range(n)) % 1
        assert iterate(c, x, n).angle == expected


def test_iterate_two_steps_unrolled(full2, rng):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = random_point(full2, rng)
    direct = compose(c.generator(x.shift(1)), c.generator(x))
    assert uniform_distance(iterate(c, x, 2), direct) == 0


def test_cocycle_law_random(full2, rng):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    for _ in range(12):
        x = random_point(full2, rng)
        n = int(rng.integers(-6, 7))
        m = int(rng.integers(-6, 7))
        lhs = iterate(c, x, n + m)
        rhs = compose(iterate(c, x.shift(n), m), iterate(c, x, n))
        assert float(uniform_distance(lhs, rhs)) == 0


@given(
    st.integers(0, 10_000), st.sampled_from(["full2", "golden"]), st.integers(0, 1),
    st.integers(-5, 5), st.integers(-5, 5),
)
@settings(max_examples=40, deadline=None)
def test_cocycle_law_and_prefixes_property(seed, space_name, window, n, m):
    space = SFTSpace.full_shift(2) if space_name == "full2" else SFTSpace.golden_mean()
    c = pl_dominated_cocycle(space, window, 0.4, seed=seed)
    x = random_point(space, np.random.default_rng(seed))
    # exact maps have one representation, so the law holds under ==
    assert iterate(c, x, n + m) == compose(iterate(c, x.shift(n), m), iterate(c, x, n))
    sign = 1 if n >= 0 else -1
    gens = reference_generators(c, x, n)
    assert len(gens) == abs(n)
    for j in range(1, abs(n) + 1):
        h = orbit_product(gens[:j])
        assert h == iterate(c, x, sign * j)
        if sign < 0:
            assert h == invert(iterate(c, x.shift(-j), j))


def test_iterate_negative_convention(full2, rng):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = random_point(full2, rng)
    for n in (1, 4):
        assert uniform_distance(iterate(c, x, -n), invert(iterate(c, x.shift(-n), n))) == 0


def test_backward_generators_match_a_fresh_fold(full2, rng):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = random_point(full2, rng)
    assert iterate(c, x, -12) == fresh_fold(c, x, -12)
    # sigma^-1 x has a different orbit word, so f^-11 is folded afresh
    assert iterate(c, x.shift(-1), -11) == fresh_fold(c, x.shift(-1), -11)


def test_iterate_breakpoint_cap(full2, monkeypatch):
    from cocyclelab import cocycles

    # the cap is read when the product is folded, not when iterate is defined
    monkeypatch.setattr(cocycles, "BREAKPOINT_CAP", 4)
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = SymbolicPoint.fixed(full2, 0)
    with pytest.raises(
        ResourceLimit,
        match=r"reached \d+ breakpoints at step \d+ \(cap 4\) folding f\^50 at <\(0\)\*\|@0\|\(0\)\*>",
    ):
        iterate(c, x, 50)


def test_iterate_denominator_cap(full2, monkeypatch):
    from cocyclelab import cocycles

    monkeypatch.setattr(cocycles, "DENOMINATOR_BITS_CAP", 40)
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = SymbolicPoint.fixed(full2, 0)
    with pytest.raises(
        ResourceLimit,
        match=r"reached \d+-bit denominators at step \d+ \(cap 40\) folding f\^50 at <\(0\)\*\|@0\|\(0\)\*>",
    ):
        iterate(c, x, 50)


def reference_fold(maps, h=None, step=0):
    """Reference: compose one map at a time and check both caps on every prefix."""
    from cocyclelab import cocycles

    for step, m in enumerate(maps, step + 1):
        h = m if h is None else compose(m, h)
        if len(h.breaks) > cocycles.BREAKPOINT_CAP:
            raise ResourceLimit(f"orbit product reached {len(h.breaks)} breakpoints at step {step} "
                                f"(cap {cocycles.BREAKPOINT_CAP})")
        if h.is_exact:
            bits = max(q.denominator for q in h.breaks + h.vals).bit_length()
            if bits > cocycles.DENOMINATOR_BITS_CAP:
                raise ResourceLimit(f"orbit product reached {bits}-bit denominators at step "
                                    f"{step} (cap {cocycles.DENOMINATOR_BITS_CAP})")
    return PLMap.identity() if h is None else h


def fold_outcome(fold, *args):
    try:
        return fold(*args)
    except ResourceLimit as e:
        return str(e)


def rotations(*angles):
    return [PLMap.rotation(Fraction(a)) for a in angles]


def test_rotation_run_passes_the_cap_on_its_lcm_only(monkeypatch):
    from cocyclelab import cocycles

    monkeypatch.setattr(cocycles, "DENOMINATOR_BITS_CAP", 8)
    # the lcm reaches 7 * 11 * 13 = 1001 (10 bits); every reduced prefix is at most 13
    run = rotations("1/7", "6/7", "1/11", "10/11", "1/13", "12/13", "1/5")
    assert math.lcm(7, 11, 13).bit_length() > 8
    assert orbit_product(run) == reference_fold(run) == PLMap.rotation(Fraction(1, 5))
    # a reduced prefix of 1001 at step 3, or at step 7 of a fold resumed after 4
    run = rotations("1/7", "1/11", "1/13", "1/5")
    message = "orbit product reached 10-bit denominators at step 3 (cap 8)"
    for fold in (orbit_product, reference_fold):
        with pytest.raises(ResourceLimit, match=re.escape(message)):
            fold(run)
        with pytest.raises(ResourceLimit, match="at step 7 "):
            fold(run, PLMap.identity(), 4)


@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda q: q < 1),
            st.sampled_from(["pl", "float"]),
        ),
        max_size=14,
    ),
    st.integers(2, 24), st.integers(0, 14), st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_orbit_product_matches_the_checked_fold_property(items, cap, split, step):
    """Runs of exact rotations, broken by PL maps and float rotations, fold to
    the product a map-by-map checked fold gives, or fail with its message."""
    from cocyclelab import cocycles

    rng = np.random.default_rng(len(items))
    maps = [
        near_identity_plmap(rng, denom=16) if q == "pl"
        else PLMap.rotation(0.3) if q == "float" else PLMap.rotation(q)
        for q in items
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycles, "DENOMINATOR_BITS_CAP", cap)
        want = fold_outcome(reference_fold, maps, None, step)
        assert fold_outcome(orbit_product, maps, None, step) == want
        # a fold resumed from a prefix it made reaches the same product
        head = fold_outcome(orbit_product, maps[:split], None, step)
        if isinstance(head, PLMap) and isinstance(want, PLMap):
            split = min(split, len(maps))
            assert orbit_product(maps[split:], head, step + split) == want


def near_identity_rule(space, window, seed):
    rng = np.random.default_rng(seed)
    return WindowRule(window, {w: near_identity_plmap(rng) for w in space.words(2 * window + 1)})


def naive_conjugated_table(F, psi):
    """Reference: psi(sigma x)^-1 f_x psi(x) by compose and invert, word by word."""
    wf, wp, wg = F.window, psi.window, max(F.window, psi.window + 1)
    naive = {}
    for v in F.space.words(2 * wg + 1):
        f = F.table[v[wg - wf : wg + wf + 1]]
        p0 = psi.table[v[wg - wp : wg + wp + 1]]
        p1 = psi.table[v[wg + 1 - wp : wg + 2 + wp]]
        naive[v] = compose(invert(p1), compose(f, p0))
    return naive


@pytest.mark.parametrize("case", ["rotations", "cocycle-wider", "rule-wider"])
def test_conjugated_pair_matches_naive_table(full2, case):
    if case == "rotations":
        F, psi = rotation_cocycle(full2, 1, seed=4), decaying_rotation_rule(full2, 5)
    elif case == "cocycle-wider":
        F, psi = pl_dominated_cocycle(full2, 2, 0.4, seed=5), near_identity_rule(full2, 0, 6)
    else:
        F, psi = pl_dominated_cocycle(full2, 0, 0.4, seed=7), near_identity_rule(full2, 2, 8)
    G = conjugated_pair(F, psi)
    assert G.window == max(F.window, psi.window + 1)
    naive = naive_conjugated_table(F, psi)
    assert G.table.keys() == naive.keys()
    assert all(G.table[v] == naive[v] for v in naive)


@given(
    st.integers(0, 10_000), st.sampled_from(["full2", "golden"]), st.integers(0, 2),
    st.integers(1, 720), st.integers(0, 5), st.one_of(st.none(), st.integers(1, 720)),
    st.fractions(min_value=0, max_value=3, max_denominator=50),
)
@settings(max_examples=30, deadline=None)
def test_rotation_tables_match_the_compose_reference_property(
    seed, space_name, wf, denom, wp, psi_denom, amp
):
    """The integer-numerator rotation tables are == to compose and Fraction
    sums, entry by entry: decaying_rotation_rule at any amplitude, and
    conjugated_pair over decaying or random rotation rules."""
    space = SFTSpace.full_shift(2) if space_name == "full2" else SFTSpace.golden_mean()
    psi = decaying_rotation_rule(space, wp, amp)
    for w, m in psi.table.items():
        angle = sum(amp * s / Fraction(space.rho) ** abs(j) for j, s in zip(range(-wp, wp + 1), w))
        assert m == PLMap.rotation(angle)
    if psi_denom is not None:  # a rule with no common structure in its angles
        rng = np.random.default_rng(seed)
        angles = rng.integers(0, psi_denom, size=len(psi.table))
        psi = WindowRule(wp, {w: PLMap.rotation(Fraction(int(a), psi_denom))
                              for w, a in zip(psi.table, angles)})
    F = rotation_cocycle(space, wf, seed, denom=denom)
    G = conjugated_pair(F, psi)
    naive = naive_conjugated_table(F, psi)
    assert G.window == max(wf, wp + 1)
    assert G.table.keys() == naive.keys()
    assert all(G.table[v] == naive[v] for v in naive)


@pytest.mark.parametrize("where", ["cocycle-pl", "rule-pl", "rule-float"])
def test_conjugated_pair_composes_unless_every_entry_is_an_exact_rotation(full2, where,
                                                                         monkeypatch):
    from cocyclelab import fixtures

    F, psi = rotation_cocycle(full2, 1, seed=4), decaying_rotation_rule(full2, 2)
    word = sorted(F.table if where == "cocycle-pl" else psi.table)[0]
    odd = PLMap.rotation(0.3) if where == "rule-float" else near_identity_plmap(
        np.random.default_rng(1))
    if where == "cocycle-pl":
        F = CocycleSpec(full2, 1, {**F.table, word: odd})
    else:
        psi = WindowRule(psi.window, {**psi.table, word: odd})
    calls = []
    monkeypatch.setattr(fixtures, "compose", lambda a, b: calls.append(1) or compose(a, b))
    G = conjugated_pair(F, psi)
    assert calls  # one entry off the integer path sends the whole table through compose
    naive = naive_conjugated_table(F, psi)
    assert all(G.table[v] == naive[v] for v in naive)


def fresh_fold(c, x, n):
    return orbit_product(reference_generators(c, x, n))


def quotient_at(A, y, B, x, n):
    """(A^n_y)^-1 B^n_x, asked for alone."""
    return quotients(A, y, B, x, (n,))[0]


@given(
    st.integers(0, 10_000), st.sampled_from(["full2", "golden"]), st.integers(0, 1),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(-9, 9)), min_size=1,
             max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_memoised_iterate_matches_fresh_fold_property(seed, space_name, window, exact, calls):
    space = SFTSpace.full_shift(2) if space_name == "full2" else SFTSpace.golden_mean()
    c = pl_dominated_cocycle(space, window, 0.4, seed=seed)
    c = c if exact else float_cocycle(c)
    rng = np.random.default_rng(seed)
    mu = MarkovMeasure.uniform(space)
    x = random_point(space, rng)
    # neighbours keeping x's coordinates up to 3 (from -3): their forward
    # (backward) orbit words share prefixes with x's, so memoised products
    # resume; shifted points put the same words at other steps of the orbit
    points = (
        x,
        resample_future(mu, x.shift(3), rng, depth=4).shift(-3),
        resample_past(mu, x.shift(-3), rng, depth=4).shift(3),
    )
    for i, j, n in calls:
        p = points[i].shift(j)
        assert iterate(c, p, n) == fresh_fold(c, p, n)


@functools.cache
def rotation_space(name):
    """The spaces rotation tables are iterated over."""
    return {"full2": SFTSpace.full_shift(2), "golden": SFTSpace.golden_mean(),
            "staircase": staircase_space(2)}[name]


ROTATION_DENOMINATORS = (2, 3, 7, 11, 13, 360, 2**61 - 1, 3**40)


@given(
    st.sampled_from(["full2", "golden", "staircase"]), st.integers(0, 1),
    st.integers(0, 10_000), st.lists(st.integers(1, 12).flatmap(
        lambda n: st.sampled_from([n, -n])), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_iterate_on_rotation_tables_matches_fresh_fold_property(name, window, seed, ns):
    """A table of exact rotations, with denominators up to and past 2**53,
    iterates to the checked fold's product by summing window numerators."""
    space = rotation_space(name)
    rng = np.random.default_rng(seed)
    table = {}
    for w in space.words(2 * window + 1):
        q = ROTATION_DENOMINATORS[int(rng.integers(len(ROTATION_DENOMINATORS)))]
        table[w] = PLMap.rotation(Fraction(int(rng.integers(2**62)) % q, q))
    c = CocycleSpec(space, window, table)
    x = random_point(space, rng)
    for n in ns:
        assert iterate(c, x, n) == fresh_fold(c, x, n)
        assert iterate(c, x.shift(n), -n) == invert(fresh_fold(c, x, n))
    assert c._cache["rotations"] is not None and "orbit" not in c._cache


def test_rotation_tables_past_the_denominator_cap_take_the_fold(monkeypatch):
    from cocyclelab import cocycles

    monkeypatch.setattr(cocycles, "DENOMINATOR_BITS_CAP", 8)
    space = SFTSpace.full_shift(3)
    c = CocycleSpec(space, 0, {bytes((s,)): PLMap.rotation(Fraction(1, q))
                               for s, q in enumerate((7, 11, 13))})
    x = SymbolicPoint.periodic(space, (0, 1, 2))
    # the common denominator 1001 has 10 bits; 1/7 + 1/11 = 18/77 has 7
    assert iterate(c, x, 2) == fresh_fold(c, x, 2) and "orbit" in c._cache
    want = fold_outcome(reference_fold, reference_generators(c, x, 3))
    assert want == "orbit product reached 10-bit denominators at step 3 (cap 8)"
    with pytest.raises(ResourceLimit, match=re.escape(f"{want} folding f^3 at {x!r}")):
        iterate(c, x, 3)
    with pytest.raises(ResourceLimit, match=re.escape("denominators at step 3 (cap 8) folding f^-3")):
        iterate(c, x, -3)
    # at a cap the common denominator fits, the product is the numerator sum
    monkeypatch.setattr(cocycles, "DENOMINATOR_BITS_CAP", 10)
    c = CocycleSpec(space, 0, dict(c.table))
    assert iterate(c, x, 3) == PLMap.rotation(Fraction(1, 7) + Fraction(1, 11) + Fraction(1, 13))
    assert "orbit" not in c._cache


@pytest.mark.parametrize("odd", ["pl", "float"])
def test_a_mixed_table_takes_the_memoised_fold(full2, rng, odd):
    r = rotation_cocycle(full2, 1, seed=4)
    word = sorted(r.table)[0]
    m = near_identity_plmap(np.random.default_rng(1)) if odd == "pl" else PLMap.rotation(0.3)
    c = CocycleSpec(full2, 1, {**r.table, word: m})
    x = random_point(full2, rng)
    for n in (5, -4):
        assert iterate(c, x, n) == fresh_fold(c, x, n)
    assert c._cache["rotations"] is None and len(c._cache["orbit"]) == 2


def test_rotation_maps_are_emptied_at_the_memo_cap(full2, rng, monkeypatch):
    from cocyclelab import cocycles

    monkeypatch.setattr(cocycles, "ORBIT_MEMO_CAP", 3)
    c = rotation_cocycle(full2, 1, seed=4)
    x = random_point(full2, rng)
    for n in range(-6, 7):
        assert iterate(c, x, n) == fresh_fold(c, x, n)
        assert len(c._cache["rotations"][2]) <= 3


def test_table_words_are_enumerated_once_under_the_cap_in_force(monkeypatch):
    from cocyclelab import cocycles, symbolic

    space = SFTSpace.full_shift(2)
    words = cocycles.table_words(space, 2, "here")
    assert cocycles.table_words(space, 2, "here") is words
    assert words == tuple(space.words(5))
    # a lowered cap is honoured, not answered from the held words
    monkeypatch.setattr(symbolic, "ENUMERATION_CAP", 31)
    with pytest.raises(ResourceLimit, match="length 5 exceeded enumeration cap 31"):
        cocycles.table_words(space, 2, "here")
    monkeypatch.undo()
    cocycles.table_words(space, 1, "here")
    assert list(space._table_words) == [(3, symbolic.ENUMERATION_CAP)]  # the last list only
    # a table in another order than the words still validates
    table = {w: PLMap.identity() for w in reversed(words)}
    assert CocycleSpec(space, 2, table).table is table


def test_orbit_memo_is_emptied_at_its_cap(full2, rng, monkeypatch):
    from cocyclelab import cocycles

    monkeypatch.setattr(cocycles, "ORBIT_MEMO_CAP", 3)
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = random_point(full2, rng)
    for n in (1, 2, -3, 4, 5, -6, 7):
        assert iterate(c, x, n) == fresh_fold(c, x, n)
        assert len(c._cache["orbit"]) <= 3


def test_quotient_inverts_then_composes(full2, rng, monkeypatch):
    from cocyclelab import cocycles

    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = random_point(full2, rng)
    y = x.shift(1)
    calls = [(p, n) for p in (x, y) for n in (1, 2, -3, 2, 1, -3, 4, -1)]
    expected = [compose(invert(iterate(c, p, n)), iterate(c, x, n)) for p, n in calls]
    assert [quotient_at(c, p, c, x, n) for p, n in calls] == expected
    assert quotient_at(c, y, c, x, 0) == PLMap.identity()
    # a quotient of exact rotations is one angle difference: nothing inverted
    r = rotation_cocycle(full2, 1, seed=4)
    inverted = []
    monkeypatch.setattr(cocycles, "invert", lambda m: inverted.append(m) or invert(m))
    for _ in range(2):
        assert quotient_at(r, y, r, x, 3) == compose(invert(iterate(r, y, 3)), iterate(r, x, 3))
    assert inverted == []


def two_rotation_cocycle(space, angles):
    return CocycleSpec(space, 0, {bytes((s,)): PLMap.rotation(a) for s, a in enumerate(angles)})


@given(
    st.sampled_from((2, 3, 7, 11, 97, 360)), st.sampled_from((2, 3, 7, 11, 97, 360)),
    st.lists(st.integers(1, 10**6), min_size=4, max_size=4), st.integers(-6, 6),
    st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_exact_rotation_quotient_is_one_angle_difference(qa, qb, nums, n, seed):
    assume(qa != qb)
    space = SFTSpace.full_shift(2)
    A = two_rotation_cocycle(space, [Fraction(k, qa) for k in nums[:2]])
    B = two_rotation_cocycle(space, [Fraction(k, qb) for k in nums[2:]])
    rng = np.random.default_rng(seed)
    x, y = random_point(space, rng), random_point(space, rng)
    got = quotient_at(A, y, B, x, n)
    assert got == compose(invert(iterate(A, y, n)), iterate(B, x, n))
    assert got.is_rotation and got.is_exact


@given(
    st.sampled_from(((7, 9), (8, 15), (11, 2**61 - 1), (3**40, 2**64))), st.integers(0, 2),
    st.integers(0, 1), st.lists(st.integers(-8, 8), min_size=1, max_size=4),
    st.integers(0, 10_000), st.booleans(),
)
@example((3**40, 2**64), 2, 1, [0, 5, -7, 5], 3, False)  # n = 0, both signs, a repeat
@example((7, 9), 2, 0, [4, -3], 8, True)  # one point read at A's window for both
@example((8, 15), 0, 1, [-5, 6], 2, True)  # and at B's
@settings(max_examples=40, deadline=None)
def test_quotient_numerators_match_the_composed_quotients(dens, window_a, window_b, ns, seed,
                                                          same):
    space = SFTSpace.full_shift(2)
    rnd, rng = random.Random(seed), np.random.default_rng(seed)
    A, B = (random_rotation_table(space, w, q, rnd) for w, q in zip((window_a, window_b), dens))
    x = random_point(space, rng)
    y = x if same else random_point(space, rng)
    den, nums = quotient_numerators(A, y, B, x, ns)
    assert den == math.lcm(*(m.angle.denominator for c in (A, B) for m in c.table.values()))
    assert all(0 <= q < den for q in nums)
    for n, q in zip(ns, nums):
        want = compose(invert(iterate(A, y, n)), iterate(B, x, n))
        assert PLMap.rotation(Fraction(q, den)) == want
        assert want == compose(invert(fresh_fold(A, y, n)), fresh_fold(B, x, n))


def test_quotient_numerators_read_one_point_once(full2, monkeypatch):
    # y's words are read once per sign, at the wider window, when both cocycles read y
    reads = []
    real = SymbolicPoint.window

    def window(p, lo, hi):
        reads.append((lo, hi))
        return real(p, lo, hi)

    rnd = random.Random(3)
    A, B = random_rotation_table(full2, 1, 7, rnd), random_rotation_table(full2, 3, 9, rnd)
    y = SymbolicPoint.make(full2, (0,), (1, 1, 0, 1), (1, 0), -2)
    monkeypatch.setattr(SymbolicPoint, "window", window)
    quotient_numerators(A, y, B, y, (4, -2))
    assert reads == [(-3, 7), (-5, 3)]
    reads.clear()
    quotient_numerators(A, y, B, y.shift(1), (4, -2))
    assert reads == [(-1, 5), (-3, 1), (-3, 7), (-5, 3)]


def test_quotient_numerators_need_two_summable_tables(full2, rng):
    rot, pl = rotation_cocycle(full2, 1, seed=4), pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = random_point(full2, rng)
    for A, B in ((rot, pl), (pl, rot), (pl, pl), (rot, float_cocycle(rot))):
        assert quotient_numerators(A, x, B, x.shift(1), (2, -1)) is None
    assert quotient_numerators(rot, x, rot, x.shift(1), (2, -1)) is not None


def test_quotient_composes_float_mixed_and_pl_products(full2, rng, monkeypatch):
    from cocyclelab import cocycles

    exact = rotation_cocycle(full2, 1, seed=4)
    floats = CocycleSpec(full2, 1, {w: PLMap.rotation(float(m.angle))
                                    for w, m in exact.table.items()})
    pl = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    composed = []

    def counted(f, g):
        composed.append((f, g))
        return compose(f, g)

    monkeypatch.setattr(cocycles, "compose", counted)
    x = random_point(full2, rng)
    y = x.shift(2)
    for A, B in ((floats, floats), (exact, floats), (floats, exact), (pl, pl), (exact, pl)):
        for n in (3, -2):
            want = compose(invert(iterate(A, y, n)), iterate(B, x, n))  # folds the products
            composed.clear()
            assert quotient_at(A, y, B, x, n) == want and len(composed) == 1
    composed.clear()
    quotient_at(exact, y, exact, x, 3)
    assert composed == []


@functools.cache
def quotient_tables(kind):
    """(A, B) over the full 2-shift: rotation tables over one denominator and
    over two (with different windows), PL tables, and each mixed order."""
    space = SFTSpace.full_shift(2)
    rot, pl = rotation_cocycle(space, 1, seed=4), pl_dominated_cocycle(space, 1, 0.4, seed=9)
    sevenths = two_rotation_cocycle(space, [Fraction(2, 7), Fraction(6, 7)])
    return {"rotation": (rot, rot), "rotation-lcm": (rot, sevenths), "pl": (pl, pl),
            "rotation-pl": (rot, pl), "pl-rotation": (pl, sevenths)}[kind]


@given(
    st.sampled_from(("rotation", "rotation-lcm", "pl", "rotation-pl", "pl-rotation")),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5), st.integers(0, 10_000),
)
@example("rotation-lcm", [0, 3, -2, 3, -5], 1)  # n = 0, both signs, a repeat
@example("pl-rotation", [-1, 0, 2], 2)
@settings(max_examples=60, deadline=None)
def test_quotients_match_one_index_at_a_time(kind, ns, seed):
    A, B = quotient_tables(kind)
    rng = np.random.default_rng(seed)
    x, y = random_point(A.space, rng), random_point(A.space, rng)
    got = quotients(A, y, B, x, ns)
    assert got == [quotient_at(A, y, B, x, n) for n in ns]
    assert got == [compose(invert(fresh_fold(A, y, n)), fresh_fold(B, x, n)) for n in ns]
    assert all(q.is_exact for q in got)


# ------------------------------------------------------------- Holder constant


def test_holder_const_constant_table(full2):
    c = constant_cocycle(full2, fb_family(Fraction(1, 3)))
    assert holder_const_cocycle(c) == 0.0


def test_holder_const_two_word_oracle(full2):
    r = Fraction(1, 5)
    c = CocycleSpec(full2, 0, {b"\x00": PLMap.identity(), b"\x01": PLMap.rotation(r)})
    # words differ at the centre: realised distance 1, d_1 = r
    assert holder_const_cocycle(c) == pytest.approx(float(r))


def test_holder_const_window_padding_invariant(full2):
    r = Fraction(1, 5)
    base = {b"\x00": PLMap.identity(), b"\x01": PLMap.rotation(r)}
    c0 = CocycleSpec(full2, 0, base)
    c1 = CocycleSpec(full2, 1, {w: base[w[1:2]] for w in full2.words(3)})
    assert holder_const_cocycle(c1) == pytest.approx(holder_const_cocycle(c0))


def test_holder_const_refuses_a_table_past_the_pair_cap(full2, monkeypatch):
    from cocyclelab import cocycles

    r = Fraction(1, 5)
    c = CocycleSpec(full2, 1, {w: PLMap.rotation(r * w[1]) for w in full2.words(3)})
    want = holder_const_cocycle(c)  # 8 words, 28 pairs
    monkeypatch.setattr(cocycles, "HOLDER_PAIRS_CAP", 28)
    assert holder_const_cocycle(c) == want
    monkeypatch.setattr(cocycles, "HOLDER_PAIRS_CAP", 27)
    monkeypatch.setattr(cocycles, "lipschitz_metric", lambda *a: pytest.fail("a pair was read"))
    with pytest.raises(ResourceLimit, match=r"28 table-word pairs, more than 27 \(HOLDER_PAIRS_CAP\)"):
        holder_const_cocycle(c)


# ------------------------------------------------------------------ domination


def test_domination_rotations(full2):
    rep = check_domination(rotation_cocycle(full2, 1, seed=1))
    assert rep.theta_s == pytest.approx(1.0)
    assert rep.theta_u == pytest.approx(1.0)
    assert rep.su_dominated


def test_domination_fb_slope(full2):
    c = constant_cocycle(full2, fb_family(Fraction(1, 4)))
    rep = check_domination(c)
    assert rep.theta_u == pytest.approx(1 - math.log2(1.5))
    assert rep.theta_s == pytest.approx(1 - math.log2(2.0))  # min slope 1/2


def test_domination_fails_for_expansion(full2):
    rep = check_domination(expanding_cocycle(full2, slope=4.0))
    assert rep.theta_u == pytest.approx(-1.0)
    assert not rep.su_dominated


def test_domination_n_step_bound(full2):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    theta_s = check_domination(c).theta_s
    rho, alpha = float(full2.rho), float(c.alpha)
    # L((f^n_x)^-1) <= rho**(n (alpha - theta_s)) along the orbit
    for x in (SymbolicPoint.fixed(full2, 0), SymbolicPoint.periodic(full2, (0, 1))):
        for n in range(1, 13):
            h = iterate(c, x, n)
            assert 1.0 / float(h.min_slope) <= rho ** (n * (alpha - theta_s)) * (1 + 1e-9)


def test_domination_monotone_under_blending(full2):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    base = check_domination(c)
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        blended = CocycleSpec(
            full2, 1, {w: blend_with_identity(m, t) for w, m in c.table.items()}
        )
        rep = check_domination(blended)
        assert rep.theta_s >= base.theta_s - 1e-12
        assert rep.theta_u >= base.theta_u - 1e-12


def test_power_domination_consistency(golden):
    c = rotation_cocycle(golden, 1, seed=6)
    assert power_domination(c, 1) == check_domination(c)
    rep = power_domination(c, 2)
    assert rep.su_dominated and rep.theta_s == pytest.approx(1.0)


def _scanned_margins(c, n0):
    """Reference: every time-n0 product's extremal slopes, rotations included."""
    products = c.table.values()
    if n0 > 1:
        products = [orbit_product(_word_generators(c, word, n0))
                    for word in c.space.words(2 * c.window + n0)]
    alpha, log_rho = float(c.alpha), math.log(float(c.space.rho) ** n0)
    theta_u = alpha - math.log(max(float(h.max_slope) for h in products)) / log_rho
    theta_s = alpha - math.log(max(1.0 / float(h.min_slope) for h in products)) / log_rho
    return DominationReport(theta_s, theta_u, theta_s > 0 and theta_u > 0)


def _margin_tables():
    space = SFTSpace.full_shift(2)
    rng = np.random.default_rng(4)
    # a float rotation by 0.9 reads slope 1 - 2**-53, so it must not be skipped
    floats = [PLMap.rotation(0.9), PLMap.rotation(0.35)]
    mixed = [PLMap.rotation(Fraction(1, 3)), PLMap.rotation(0.9),
             float_map(near_identity_plmap(rng)), near_identity_plmap(rng)]
    return {
        "exact-rotations": rotation_cocycle(space, 1, seed=1),
        "exact-pl": pl_dominated_cocycle(space, 1, 0.4, seed=3),
        "float-rotations": CocycleSpec(space, 0, dict(zip(space.words(1), floats))),
        "mixed": CocycleSpec(space, 1, {w: mixed[i % 4] for i, w in enumerate(space.words(3))}),
        # exact rotations pin the largest slope at 1 although the float one reads less
        "exact-and-float-rotations": CocycleSpec(
            space, 0, {b"\x00": PLMap.rotation(Fraction(1, 3)), b"\x01": PLMap.rotation(0.9)}
        ),
    }


_MARGIN_TABLES = _margin_tables()


@pytest.mark.parametrize("n0", [1, 2])
@pytest.mark.parametrize("name", sorted(_MARGIN_TABLES))
def test_margins_match_the_full_scan(name, n0):
    c = _MARGIN_TABLES[name]
    assert power_domination(c, n0) == _scanned_margins(c, n0)


def test_margin_tables_reach_float_rounding():
    rotations = _MARGIN_TABLES["float-rotations"].table.values()
    assert min(float(m.max_slope) for m in rotations) < 1.0


# ------------------------------------------------------------------ distortion


def test_distortion_rotations_certified(full2, rng):
    c = rotation_cocycle(full2, 1, seed=1)
    pts = [random_point(full2, rng) for _ in range(5)]
    rep = check_bounded_distortion(c, 8, pts)
    assert rep.certified and rep.K_est == pytest.approx(1.0)


def test_distortion_of_a_summable_rotation_table_reads_no_orbit(full2, rng, monkeypatch):
    from cocyclelab import cocycles

    def unread(*args):
        raise AssertionError("iterate was called")

    c = rotation_cocycle(full2, 1, seed=1)
    pts = [random_point(full2, rng) for _ in range(5)]
    monkeypatch.setattr(cocycles, "iterate", unread)
    h = cocycles.HORIZON_CAP
    rep = check_bounded_distortion(c, h, pts)
    assert rep == DistortionReport(1.0, h, True, (1.0,) * h, False)


def test_distortion_of_a_rotation_table_past_the_denominator_cap_walks_the_orbit(monkeypatch):
    from cocyclelab import cocycles

    calls = []

    def counted(*args):
        calls.append(args)
        return iterate(*args)

    monkeypatch.setattr(cocycles, "iterate", counted)
    monkeypatch.setattr(cocycles, "DENOMINATOR_BITS_CAP", 8)
    space = SFTSpace.full_shift(3)
    c = CocycleSpec(space, 0, {bytes((s,)): PLMap.rotation(Fraction(1, q))
                               for s, q in enumerate((7, 11, 13))})
    x = SymbolicPoint.periodic(space, (0, 1, 2))
    # the common denominator 1001 has 10 bits; f^2_x = 18/77 has 7, f^3_x 10
    assert check_bounded_distortion(c, 2, [x, x]) == DistortionReport(1.0, 2, True, (1.0, 1.0))
    assert len(calls) == 4
    with pytest.raises(ResourceLimit, match="10-bit denominators at step 3"):
        check_bounded_distortion(c, 3, [x])


def test_distortion_telescoping(full2):
    c = telescoping_cocycle(full2)
    orbit = SymbolicPoint.periodic(full2, (0, 1))
    rep = check_bounded_distortion(c, 10, [orbit, orbit.shift(1)])
    assert not rep.certified
    assert rep.K_est == pytest.approx(1.5)
    assert not rep.growth_flagged
    # oracle: alternating products m^-1 m collapse, so distortion never
    # exceeds a single step's slope
    m = c.table[b"\x00"]
    assert rep.K_est == float(m.max_slope)


def test_distortion_expanding_growth(full2):
    c = expanding_cocycle(full2, slope=1.5)
    x = SymbolicPoint.fixed(full2, 0)
    horizon = 6
    rep = check_bounded_distortion(c, horizon, [x])
    assert rep.growth_flagged
    # at least the forward slope product accumulates every step
    assert rep.K_est >= 1.5**horizon
    assert all(b > a for a, b in zip(rep.per_step_max, rep.per_step_max[1:]))


# ------------------------------------------------------------------------ JSON


def test_cocycle_json_roundtrip(golden):
    c = rotation_cocycle(golden, 1, seed=6)
    doc = c.to_json()
    c2 = CocycleSpec.from_json(golden, doc)
    assert c2.window == c.window
    assert all(uniform_distance(c.table[w], c2.table[w]) == 0 for w in c.table)


def test_cocycle_json_many_symbols():
    from cocyclelab.fixtures import staircase_cocycle

    coc, _, _ = staircase_cocycle(4)
    doc = coc.to_json()
    assert any("," in k for k in doc["table"])  # words beyond digits use commas
    c2 = CocycleSpec.from_json(coc.space, doc)
    assert set(c2.table) == set(coc.table)
    # a window-0 word (10,) is written "10", with no comma, and reads back as one symbol
    space = SFTSpace.full_shift(12)
    c = CocycleSpec(space, 0, {w: PLMap.rotation(Fraction(w[0], 12)) for w in space.words(1)})
    assert CocycleSpec.from_json(space, c.to_json()).table == c.table


def test_pl_dominated_generator_slope_band(full2, golden):
    # the generator promises every slope strictly inside the domination band
    for space in (full2, golden):
        for theta in (0.3, 0.4, 0.6):
            band = float(space.rho) ** (1.0 - theta)
            c = pl_dominated_cocycle(space, 1, theta, seed=14)
            for m in c.table.values():
                assert 1.0 / band < float(m.min_slope) <= float(m.max_slope) < band
            assert check_domination(c).theta >= theta - 1e-9
