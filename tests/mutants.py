"""A standing set of mutants of ``src/cocyclelab``: one-snippet edits that the
named test files must fail on.

Each entry names a module under ``src/cocyclelab``, the exact snippet it
replaces, the replacement, and the test files expected to kill it.
``tests/test_mutants.py`` checks in the tier-1 suite that every old snippet
occurs exactly once in ``src/``, so a change to a mutated line must update
its entry in the same change.

Run as a script, this file copies the repository into a temporary directory,
runs the named test files once unmutated (they must pass), then applies each
mutant in turn and runs ``pytest -x`` on its test files.  It prints each
outcome and exits 1 if a mutant survived or a run could not be judged:

    python3 tests/mutants.py [NAME ...]

The whole set (64 mutants) took 352 s on a 2-core Linux machine with Python
3.11 (one test process at a time); every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # module file under src/cocyclelab
    old: str
    new: str
    tests: tuple[str, ...]  # test files, relative to the repository root


CLI, COCYCLES, SYMBOLIC, TRANSFER = (
    ("tests/test_cli.py",), ("tests/test_cocycles.py",), ("tests/test_symbolic.py",),
    ("tests/test_transfer.py",),
)

MUTANTS = (
    # symbolic points and sampling
    Mutant("canonical-right-tail-rotated-wrong-way", "symbolic.py",
           "right = _rotate(right, -j)", "right = _rotate(right, j)", SYMBOLIC),
    Mutant("canonical-junction-keeps-core-start", "symbolic.py",
           'b"", _rotate(right, -steps), core_start - steps',
           'b"", _rotate(right, -steps), core_start', SYMBOLIC),
    Mutant("primitive-finds-the-word-itself", "symbolic.py",
           "return word[: (word + word).find(word, 1)]",
           "return word[: (word + word).find(word, 0)]", SYMBOLIC),
    Mutant("forbidden-pattern-first-branch-only", "symbolic.py",
           'return re.compile(b"|".join(branches)) if branches else None',
           "return re.compile(branches[0]) if branches else None", SYMBOLIC),
    Mutant("symbol-cap-off-by-one", "symbolic.py",
           "if self.k > SYMBOL_CAP:", "if self.k >= SYMBOL_CAP:", SYMBOLIC),
    Mutant("rho-past-the-float-range-accepted", "symbolic.py",
           "if not self.rho <= sys.float_info.max:", "if not self.rho <= math.inf:", CLI),
    Mutant("make-range-check-accepts-float-symbols", "symbolic.py",
           "else bytes(tuple(w)) for w in words]", "else bytes(map(int, w)) for w in words]",
           SYMBOLIC),
    Mutant("make-reads-the-numpy-buffer", "symbolic.py",
           "w if type(w) is bytes else tuple(w) for w in (left, core, right)",
           "w if type(w) is bytes else bytes(w) for w in (left, core, right)", SYMBOLIC),
    Mutant("agreement-codes-four-bits-a-symbol", "symbolic.py",
           "return (width - (diff.bit_length() - 1) // 8) // 2 if diff else None",
           "return (width - (diff.bit_length() - 1) // 4) // 2 if diff else None", SYMBOLIC),
    Mutant("irreducible-closure-one-squaring-short", "symbolic.py",
           "for _ in range(self.k.bit_length()):", "for _ in range(self.k.bit_length() - 1):",
           SYMBOLIC),
    Mutant("block-step-strict-comparison", "symbolic.py",
           "np.count_nonzero(forward[s] <= u[:, t, None], axis=1)",
           "np.count_nonzero(forward[s] < u[:, t, None], axis=1)", SYMBOLIC),
    Mutant("block-drawn-column-major", "symbolic.py",
           "u = rng.random((min(SAMPLE_BLOCK, count - done), depth))",
           "u = rng.random((depth, min(SAMPLE_BLOCK, count - done))).T", SYMBOLIC),
    Mutant("sampled-words-unchecked", "symbolic.py",
           "if not all(map(mu.space.admissible_word, words)):", "if False:", SYMBOLIC),
    Mutant("resampled-future-unchecked", "symbolic.py",
           "rng.random(depth).tolist()))\n    if not mu.space.admissible_word(syms):",
           "rng.random(depth).tolist()))\n    if False:", SYMBOLIC),
    Mutant("resampled-past-unchecked", "symbolic.py",
           "x.window(1, hi + 1)\n    if not mu.space.admissible_word(syms):",
           "x.window(1, hi + 1)\n    if False:", SYMBOLIC),
    Mutant("splice-left-seam-unchecked", "symbolic.py",
           "if not space.admissible_word(left[-1:] + word + right[:1]):",
           "if not space.admissible_word(word + right[:1]):", SYMBOLIC),
    Mutant("golden-mean-rho-3", "symbolic.py",
           "return cls(2, ((1, 1), (1, 0)))", "return cls(2, ((1, 1), (1, 0)), 3)", SYMBOLIC),
    # PL maps
    Mutant("rotation-numerators-accept-pl", "circlemaps.py",
           "if len(m.breaks) != 1 or type(a) is not Fraction:",
           "if type(a) is not Fraction:", ("tests/test_circlemaps.py",)),
    Mutant("holder-constant-lmin-reads-max", "circlemaps.py",
           "lmax, lmin = float(max(slopes)), float(min(slopes))",
           "lmax, lmin = float(max(slopes)), float(max(slopes))", ("tests/test_circlemaps.py",)),
    Mutant("slopes-wrap-point-at-one", "circlemaps.py",
           "xs, ys = breaks + (breaks[0] + 1,), vals", "xs, ys = breaks + (1,), vals",
           ("tests/test_circlemaps.py",)),
    Mutant("make-accepts-zero-interior-slope", "circlemaps.py",
           "_check_rises(n > 0 for n, _ in rises)", "_check_rises(n >= 0 for n, _ in rises)",
           ("tests/test_circlemaps.py",)),
    Mutant("make-positivity-messages-swapped", "circlemaps.py",
           'raise ValueError("lift values must be strictly increasing")\n'
           '    if not wrap:\n'
           '        raise ValueError("wrap segment must have positive slope")',
           'raise ValueError("wrap segment must have positive slope")\n'
           '    if not wrap:\n'
           '        raise ValueError("lift values must be strictly increasing")',
           ("tests/test_circlemaps.py",)),
    Mutant("make-order-check-accepts-ties", "circlemaps.py",
           "all(n > 0 for n, _ in runs[:-1])", "all(n >= 0 for n, _ in runs[:-1])",
           ("tests/test_circlemaps.py",)),
    Mutant("exact-merge-keeps-collinear-points", "circlemaps.py",
           "if p * slopes[i - 1][1] != slopes[i - 1][0] * q])",
           "if p * slopes[i - 1][1] == slopes[i - 1][0] * q])", ("tests/test_circlemaps.py",)),
    Mutant("make-accepts-non-finite", "circlemaps.py",
           "if not exact and not all(map(math.isfinite, breaks + vals)):",
           "if not exact and not all(map(math.isfinite, breaks)):", ("tests/test_circlemaps.py",)),
    # orbit products and cocycle reports
    Mutant("rotation-sum-not-negated", "cocycles.py",
           "accumulate([-nums[", "accumulate([nums[", COCYCLES),
    Mutant("shared-orbit-word-read-from-its-start", "cocycles.py",
           "words_x, wx - wb, top, bottom)", "words_x, 0, top, bottom)", COCYCLES),
    Mutant("numerator-totals-one-term-short", "cocycles.py",
           "for j in range(cut, cut + top)])", "for j in range(cut, cut + top - 1)])", COCYCLES),
    Mutant("quotients-scale-swapped", "cocycles.py",
           "return den, den // den_a, den // den_b", "return den, den // den_b, den // den_a",
           COCYCLES),
    Mutant("holonomy-tail-at-the-same-index", "holonomy.py",
           "(sign * n_used, sign * (n_used + n0))", "(sign * n_used, sign * n_used)",
           ("tests/test_holonomy.py",)),
    Mutant("limit-tail-without-arc-min", "holonomy.py",
           "n_used, min(d, den - d) / den", "n_used, d / den", ("tests/test_holonomy.py",)),
    Mutant("numerator-sum-past-denominator-cap", "cocycles.py",
           "if rot is not None and rot[0].bit_length() <= DENOMINATOR_BITS_CAP and BREAKPOINT_CAP >= 1:",
           "if rot is not None and BREAKPOINT_CAP >= 1:", COCYCLES),
    Mutant("distortion-reads-summable-orbits", "cocycles.py",
           "samples = list(samples) if _rotation_sums(c) is None else []",
           "samples = list(samples)", COCYCLES),
    Mutant("distortion-growth-without-margin", "cocycles.py",
           "> GROWTH_MARGIN * max(per_step[:half])", "> max(per_step[:half])",
           ("tests/test_rigidity.py",)),
    Mutant("distortion-inverse-slope-reads-max", "cocycles.py",
           "float(max(slopes)), 1.0 / float(min(slopes)))\n",
           "float(max(slopes)), 1.0 / float(max(slopes)))\n", COCYCLES),
    Mutant("margins-shortcut-inverted", "cocycles.py",
           "if _rotation_sums(c) is not None:\n            products = (PLMap.identity(),)",
           "if _rotation_sums(c) is None:\n            products = (PLMap.identity(),)", COCYCLES),
    Mutant("margins-inverse-slope-reads-max", "cocycles.py",
           "max(down, 1.0 / float(min(slopes)))", "max(down, 1.0 / float(max(slopes)))", COCYCLES),
    Mutant("margins-fold-reads-the-first-step", "cocycles.py",
           "products = [orbit_product(_word_generators(c, word, n0))",
           "products = [orbit_product(_word_generators(c, word, 1))", COCYCLES),
    Mutant("table-words-memo-keyed-without-cap", "cocycles.py",
           "key = (length, symbolic.ENUMERATION_CAP)", "key = (length,)", COCYCLES),
    # fixtures
    Mutant("conjugated-pair-psi-sigma-at-psi-offset", "fixtures.py",
           "- pn[v[pa + 1 : pb + 1]]", "- pn[v[pa:pb]]", COCYCLES),
    Mutant("rotation-conjugacy-rule-compose-order", "fixtures.py",
           "compose(base, m)", "compose(m, base)", TRANSFER),
    Mutant("near-identity-three-breaks", "fixtures.py",
           "rng.choice(denom, size=4, replace=False)", "rng.choice(denom, size=3, replace=False)",
           CLI),
    Mutant("corruption-angle-doubled", "fixtures.py",
           "offset = Fraction(1, 8) + random_fraction(rng, 64) / 8",
           "offset = Fraction(1, 8) + random_fraction(rng, 64) / 4", CLI),
    # transfer and repair
    Mutant("regression-rotation-distance-plus", "transfer.py",
           "d = (num[f] - num[g]) % den", "d = (num[f] + num[g]) % den", TRANSFER),
    Mutant("regression-rotation-distance-float-quotient", "transfer.py",
           "r = min(d, den - d) / den", "r = float(min(d, den - d)) / float(den)", TRANSFER),
    Mutant("residual-term-sign-flipped", "transfer.py",
           "+ num[ids[3]]) % den", "- num[ids[3]]) % den", TRANSFER),
    Mutant("residual-integer-path-with-a-pl-row", "transfer.py",
           "if all(i in num for i in ids):", "if any(i in num for i in ids):", TRANSFER),
    Mutant("equal-returns-rotation-scan-inverted", "transfer.py",
           "_rotation_sums(c) is not None or", "_rotation_sums(c) is None or", TRANSFER),
    Mutant("regularize-lip-inverse-slope-reads-max", "rigidity.py",
           "1.0 / float(min(s))) for s in slopes)", "1.0 / float(max(s))) for s in slopes)",
           TRANSFER),
    Mutant("path-check-skips-every-target", "rigidity.py",
           "for t in [t for t in targets if anchor[t] != t][:20]:",
           "for t in [t for t in targets[:20] if anchor[t] != t]:", ("tests/test_rigidity.py",)),
    Mutant("anchor-from-another-cylinder", "rigidity.py",
           "if closeness[i, c] < 1:", "if closeness[i, c] < 0:", ("tests/test_rigidity.py",)),
    Mutant("distortion-screen-skipped", "rigidity.py",
           "if distortion.growth_flagged:", "if distortion.growth_flagged and False:",
           ("tests/test_rigidity.py",)),
    Mutant("regularize-corruption-unsorted", "rigidity.py",
           "corrupted = sorted(phi.corruption, key=SymbolicPoint.sort_key)",
           "corrupted = list(phi.corruption)", CLI),
    # experiment configs and rows
    Mutant("tolerance-names-of-any-experiment", "experiments.py",
           "_, _, reads, names, cycle = RUNNERS[exp]",
           "_, _, _, names, cycle = RUNNERS[exp]\n"
           "        reads = {n: 0 for _, _, r, *_ in RUNNERS.values() for n in r}", CLI),
    Mutant("partial-cocycles-accepted", "experiments.py",
           "if cocycles and len(cocycles) < len(names):", "if cocycles and len(cocycles) < 1:",
           CLI),
    Mutant("seed-refusal-from-minus-two", "experiments.py", "seed < 0", "seed < -1", CLI),
    Mutant("gen-writes-unchecked-configs", "experiments.py",
           "        ExperimentConfig.from_json(doc)  #", "        #", CLI),
    Mutant("exponent-row-passes-without-a-regression", "experiments.py",
           "exponent = rep.regression[0] if rep.regression else -math.inf",
           "exponent = rep.regression[0] if rep.regression else math.inf", CLI),
    Mutant("gen-reads-undeclared-parameters", "experiments.py",
           "if param not in reads:", "if False:", CLI),
    Mutant("count-check-accepts-fractions", "experiments.py",
           "if val != int(val) or cap and val > cap[0]:", "if cap and val > cap[0]:", CLI),
    Mutant("points-left-out-of-count-check", "experiments.py",
           '"points": None, ', "", CLI),
    Mutant("triples-uncapped", "experiments.py",
           '"triples": (TRIPLES_CAP, "TRIPLES_CAP")', '"triples": None', CLI),
    Mutant("family-pairs-uncapped", "experiments.py",
           '"family_pairs": (FAMILY_PAIRS_CAP, "FAMILY_PAIRS_CAP")', '"family_pairs": None', CLI),
    Mutant("n-max-cap-raised", "cocycles.py",
           "N_MAX_CAP = 200  #", "N_MAX_CAP = 200 * 10**20  #", CLI),
)


RUN_TIMEOUT_S = 600  # a mutant can make a test loop for good; no file takes a minute


def _pytest(root: Path, files, env) -> int | str:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    try:
        return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(Path(__file__).resolve().parent.parent, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        files = sorted({f for m in chosen for f in m.tests})
        code = _pytest(root, files, env)
        if code != 0:
            print(f"unmutated tests fail (pytest exit {code}): {' '.join(files)}", file=sys.stderr)
            return 2
        for m in chosen:
            path = root / "src" / "cocyclelab" / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: the old snippet does not occur exactly once", file=sys.stderr)
                return 2
            path.write_text(text.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                code = _pytest(root, m.tests, env)
            finally:
                path.write_text(text)
            # pytest exits 1 when a test failed and 2 when collection failed,
            # which the unmutated run ruled out; any other code is no verdict
            outcome = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(
                code, f"NO VERDICT (pytest exit {code})")
            failed += code not in (1, 2)
            print(f"{outcome:<10} {m.name} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
