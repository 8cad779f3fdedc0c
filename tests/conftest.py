from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from cocyclelab import CocycleSpec, PLMap, SFTSpace, SymbolicPoint, holonomy, uniform_distance
from cocyclelab.errors import NotStablePair
from cocyclelab.fixtures import near_identity_plmap
from cocyclelab.symbolic import stable_agreement_onset

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def full2():
    return SFTSpace.full_shift(2)


@pytest.fixture
def golden():
    return SFTSpace.golden_mean()


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def blend_with_identity(f, t):
    """Convex combination of the lift with the identity lift; t=1 gives the identity."""
    if not 0 <= t <= 1:
        raise ValueError("t must be in [0, 1]")
    return PLMap.make(f.breaks, [(1 - t) * v + t * b for b, v in zip(f.breaks, f.vals)])


def float_map(m):
    """The float PL map through the coordinates of ``m``."""
    return PLMap.make([float(b) for b in m.breaks], [float(v) for v in m.vals])


def float_cocycle(c):
    """``c`` with every table entry replaced by its float copy."""
    return CocycleSpec(c.space, c.window, {w: float_map(m) for w, m in c.table.items()})


def equivariant_plmap(rng, q):
    """A near-identity map on [0, 1/q) repeated with +k/q: it commutes with
    every rotation by a multiple of 1/q."""
    h = near_identity_plmap(rng)
    return PLMap.make([(b + k) / q for k in range(q) for b in h.breaks],
                      [(v + k) / q for k in range(q) for v in h.vals])


def random_rotation_table(space, window, den, rnd):
    """A window table of exact rotations by k / den, each k drawn by ``rnd``
    (a ``random.Random``, which draws below any ``den``)."""
    return CocycleSpec(space, window, {w: PLMap.rotation(Fraction(rnd.randrange(den), den))
                                       for w in space.words(2 * window + 1)})


def stable_pair(x, y):
    """Whether x and y lie on one stable set."""
    try:
        stable_agreement_onset(x, y)
    except NotStablePair:
        return False
    return True


def conj_hol_residuals(phi, F, G, pairs):
    """Residuals of Theorem B's relation phi_y = h^F_xy phi_x (h^G_xy)^-1, one
    per pair (x, y): phi_x is carried to y by ``holonomy.transport`` along
    the stable side when the pair is stable, else along the unstable side."""
    return [
        float(uniform_distance(phi.phi_at(y), holonomy.transport(
            F, G, x, y, "s" if stable_pair(x, y) else "u", phi.phi_at(x))))
        for x, y in pairs
    ]


def random_point(space, rng, max_core=5):
    """Random eventually-periodic point, built from admissible pieces."""
    def admissible_word(length, start=None):
        w = [start if start is not None else int(rng.integers(space.k))]
        while len(w) < length:
            w.append(int(rng.choice(space.successors(w[-1]))))
        return bytes(w)

    while True:
        left = admissible_word(int(rng.integers(1, 4)))
        if not space.admissible_cycle(left):
            continue
        core = b""
        if rng.integers(0, 2):
            nxt = space.successors(left[-1])
            core = admissible_word(int(rng.integers(1, max_core + 1)), int(rng.choice(nxt)))
        prev = core[-1] if core else left[-1]
        right = admissible_word(int(rng.integers(1, 4)), int(rng.choice(space.successors(prev))))
        if not space.admissible_cycle(right):
            continue
        seam = left[-1:] + core + right[:1]
        if not space.admissible_word(seam):
            continue
        return SymbolicPoint.make(space, left, core, right, int(rng.integers(-4, 5)))


def unequal_tail_pool():
    """Points of the full 3-shift whose tails have different periods."""
    rng = np.random.default_rng(5)
    pts = [random_point(SFTSpace.full_shift(3), rng) for _ in range(24)]
    pool = list(dict.fromkeys(pts + [x.shift(n) for x, n in zip(pts, (1, -1, 2, -3))]))
    assert sum(len(x.left) != len(x.right) for x in pool) >= 8
    return pool
