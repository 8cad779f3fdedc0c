import numpy as np
import pytest
from hypothesis import settings

from cocyclelab import PLMap, SFTSpace, SymbolicPoint

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
