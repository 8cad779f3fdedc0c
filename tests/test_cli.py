import hashlib
import json
import math
import re
from fractions import Fraction

import pytest

from cocyclelab import PLMap, SFTSpace, fb_family
from cocyclelab.cli import main
from cocyclelab.experiments import FIXTURE_KINDS, ExperimentConfig
from cocyclelab.errors import ConfigError
from cocyclelab.fixtures import rotation_cocycle


# sha256 of rows.csv for the run each test below makes; a change that keeps
# every verdict and residual keeps these
ROWS_SHA256 = {
    "distortion": "291007f983a3df65e0eac2ad6a03b4f319814f8e4da803fcbaf361ef40d18183",
    "theorem-a": "829dca1820d5c142632d65ed397331f887693e54679558fb41ed1040bd42fd88",
    "metric-suite": "395d39c703d6aaaa3781ded9b042baababb39ff1d5f28d7e972d41bb5b66bfaa",
    "closing-lemma": "962be91464a2cd716bb2dfa5b8a498b90e2a388f0b1a0e6a4f1ebb991e4372d8",
    "holonomy": "3f6f93acb4bfe71f3358c3a4e7682119197f5ea0d6a48f6f62e9a6e49adb29a9",
    "theorem-b": "9e028704504c98b5a55df28b4525d97accf412fde7c952090412c01c1ebdd463",
}


def assert_rows_pinned(out_dir, experiment):
    digest = hashlib.sha256((out_dir / "rows.csv").read_bytes()).hexdigest()
    assert digest == ROWS_SHA256[experiment]


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_list_experiments(capsys):
    from cocyclelab.experiments import EXPERIMENTS, RUNNERS

    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in ("metric-suite", "theorem-a", "theorem-b", "closing-lemma"):
        assert name in out
    # one table names the experiments, runs them and gives their help lines
    assert EXPERIMENTS == tuple(RUNNERS)
    assert out.splitlines() == [f"{name:15s} {line}" for name, (_, line, *_) in RUNNERS.items()]


def test_gen_fb_family_matches_formula(tmp_path, capsys):
    assert main(["gen", "fb-family", "--param", "b=1/4", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "fb_family.json").read_text())
    assert PLMap.from_json(doc) == fb_family(Fraction(1, 4))


def test_gen_rotation_cocycle_is_runnable(tmp_path):
    assert main(["gen", "rotation-cocycle", "--seed", "2", "--out", str(tmp_path)]) == 0
    cfg = tmp_path / "rotation_cocycle.json"
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert_rows_pinned(tmp_path / "out", "distortion")


def test_gen_conjugated_pair_passes_theorem_a(tmp_path, monkeypatch):
    from cocyclelab import experiments, transfer

    checked = []
    check = transfer.check_periodic_data

    def counting_check(*args, **kwargs):
        checked.append(args[:2])
        return check(*args, **kwargs)

    monkeypatch.setattr(transfer, "check_periodic_data", counting_check)
    monkeypatch.setattr(experiments, "check_periodic_data", counting_check)
    assert main(["gen", "conjugated-pair", "--seed", "4", "--param", "psi_window=3",
                 "--out", str(tmp_path)]) == 0
    cfg = tmp_path / "conjugated_pair.json"
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert_rows_pinned(tmp_path / "out", "theorem-a")
    # the pair is checked once, inside build_transfer; then the perturbed pair
    assert len(checked) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "pass"
    names = {r["name"] for r in report["rows"]}
    assert "periodic-data" in names and "cohomological-residual" in names


# sha256 of the file `gen conjugated-pair --seed 4 --param psi_window=N` writes
GEN_CONJUGATED_PAIR_SHA256 = {
    3: "c1f3416c514c4c523208d91c25fa27df8296de925f04d32ebbd6cf2b67e6811e",
    5: "72c2fb934eddf15de87f0ad881e1f56379554083315b802373f0efb8e3bf755c",
}


@pytest.mark.parametrize("psi_window", sorted(GEN_CONJUGATED_PAIR_SHA256))
def test_gen_conjugated_pair_is_pinned(tmp_path, psi_window):
    assert main(["gen", "conjugated-pair", "--seed", "4", "--param", f"psi_window={psi_window}",
                 "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "conjugated_pair.json").read_bytes()).hexdigest()
    assert digest == GEN_CONJUGATED_PAIR_SHA256[psi_window]


# (kind, the base file's parameters, a parameter the kind declares, a valid
# value other than its default); each case must change the file gen writes
GEN_PARAMETER_CASES = [
    ("rotation-cocycle", {}, "window", "2"),
    ("pl-dominated-cocycle", {}, "window", "2"),
    ("pl-dominated-cocycle", {}, "theta", "0.3"),
    ("conjugated-pair", {}, "psi_window", "2"),
    ("corrupted-conjugacy", {}, "tol", "1e-5"),
    ("fb-family", {}, "b", "1/3"),
    *((kind, {}, name, value) for kind in ("rotation-cocycle", "pl-dominated-cocycle",
                                             "corrupted-conjugacy")
      for name, value in (("space", "golden-mean"), ("k", "3"))),
    # the default psi window makes the full 3-shift's G table too large
    *(("conjugated-pair", {"psi_window": "1"}, name, value)
      for name, value in (("space", "golden-mean"), ("k", "3"))),
]


def test_gen_parameter_cases_cover_every_declared_parameter():
    from cocyclelab.experiments import _FIXTURES

    declared = {(kind, name) for kind, (experiment, _, _, reads) in _FIXTURES.items()
                for name in (*reads, *(("space", "k") if experiment else ()))}
    assert {(kind, name) for kind, _, name, _ in GEN_PARAMETER_CASES} == declared


@pytest.mark.parametrize("kind, base, name, value", GEN_PARAMETER_CASES,
                         ids=[f"{kind}-{name}" for kind, _, name, _ in GEN_PARAMETER_CASES])
def test_gen_reads_every_parameter_it_declares(tmp_path, kind, base, name, value):
    written = []
    for params in (base, {**base, name: value}):
        out = tmp_path / str(len(written))
        args = [f"--param={n}={v}" for n, v in params.items()]
        assert main(["gen", kind, "--seed", "3", *args, "--out", str(out)]) == 0
        (path,) = out.iterdir()
        written.append(path.read_bytes())
    assert written[0] != written[1]


@pytest.mark.parametrize("args, message", [
    (["rotation-cocycle", "--param", "windw=3"],
     "windw: rotation-cocycle reads only window, space, k"),
    (["conjugated-pair", "--param", "window=3"],
     "window: conjugated-pair reads only psi_window, space, k"),
    # k names the size of the full shift, so another space reads none
    (["corrupted-conjugacy", "--param", "space=golden-mean", "--param", "k=5"],
     "k: corrupted-conjugacy reads only tol, space"),
    (["fb-family", "--param", "window=1"], "window: fb-family reads only b"),
])
def test_gen_refuses_a_parameter_it_does_not_read(tmp_path, capsys, args, message):
    # a misspelt or misplaced parameter is refused, not dropped for its default
    assert main(["gen", *args, "--out", str(tmp_path / "gen")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("args, message", [
    # theta=nan reached near_identity_plmap and exited 1 with a traceback
    (["pl-dominated-cocycle", "--param", "theta=nan"], "theta: expected a positive finite number, got nan"),
    (["pl-dominated-cocycle", "--param", "theta=-5"], "theta: expected a positive finite number, got -5"),
    (["corrupted-conjugacy", "--param", "tol=nan"], "tol: expected a positive finite number, got nan"),
    (["corrupted-conjugacy", "--param", "tol=-1"], "tol: expected a positive finite number, got -1"),
])
def test_gen_refuses_what_run_would_refuse(tmp_path, capsys, args, message):
    assert main(["gen", *args, "--out", str(tmp_path / "gen")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("args", [["pl-dominated-cocycle", "--param", "theta=-5"],
                                  ["corrupted-conjugacy", "--param", "tol=nan"],
                                  ["corrupted-conjugacy", "--param", "tol=-1"]])
def test_gen_checks_the_config_before_writing_it(tmp_path, capsys, monkeypatch, args):
    # with the parameter's own check gone, the config check refuses the document
    from cocyclelab import experiments

    monkeypatch.setattr(experiments, "_positive", float)
    assert main(["gen", *args, "--out", str(tmp_path / "gen")]) == 2
    err = capsys.readouterr().err
    assert "config error: tolerances." in err and "Traceback" not in err
    assert not (tmp_path / "gen").exists()


def test_exponent_rows_fail_when_nothing_was_measured(monkeypatch):
    import dataclasses

    from cocyclelab import experiments

    def rows(exp):
        return {r.name: r.passed for r in experiments.RUNNERS[exp][0](ExperimentConfig(exp))[0]}

    # theorem-b: a regression regularize could not fit, on either run
    regularize, fits = experiments.regularize, []

    def unfitted(*args, **kwargs):
        samples, rep = regularize(*args, **kwargs)
        return samples, dataclasses.replace(rep, regression=None) if fits.pop(0) else rep

    monkeypatch.setattr(experiments, "regularize", unfitted)
    for missing in ((True, True), (True, False), (False, True)):
        fits[:] = missing
        got = rows("theorem-b")
        assert got["regularized-exponent"] is not missing[0]
        assert got["corruption-invisibility"] is False and got["repair-recovery"] is True
    # theorem-a: two infinite exponents are two constant fits
    constant = lambda *args, **kwargs: (math.inf, 0.0)  # noqa: E731
    monkeypatch.setattr(experiments, "estimate_holder", constant)
    monkeypatch.setattr(experiments, "holder_regression", constant)
    assert rows("theorem-a")["transfer-exponent-gap"] is False


# sha256 of every file `run` writes for {"experiment": ..., "seed": ...};
# report.json is hashed as json.dumps(doc, indent=2) without wall_clock_s
OUTPUT_SHA256 = {
    ("theorem-a", 0): {
        "report.json": "4bb710f7632715bba940467d79f019fbb3c61c85316ed9bed3ae91691c61c410",
        "residuals.csv": "9ce1cd190bf0c78fad382c627cd7af218f556ae6a8d35db5d5cf7584372f7293",
        "rows.csv": "755b645d64af3108cd2fc4d994734f024cc20584c63f7bdd4ab0797827a902b4",
    },
    ("theorem-a", 77): {
        "report.json": "b9ccb4e0ed07999ff82204e20945c85e65b34a24c14a3143443e71921f3f76ff",
        "residuals.csv": "9ce1cd190bf0c78fad382c627cd7af218f556ae6a8d35db5d5cf7584372f7293",
        "rows.csv": "755b645d64af3108cd2fc4d994734f024cc20584c63f7bdd4ab0797827a902b4",
    },
    ("theorem-b", 0): {
        "repaired.csv": "0abc9b075e40efe5ff6310b88411fc887e12dfcec6b04f0c91933eedfd2046a9",
        "report.json": "50e3cd8399d1a0a297fde17f4aa3231cfaa0d184a9dc8a242470ae47ad71ad37",
        "rigidity.json": "fda8ecf084d9424ed1f6b5b734606c2ba4479bac84f3409424fe72cf8abe9153",
        "rows.csv": "b1dfdeaece96f65f75c03e56b7a23fd02cf883399d81e5cab0df8d36af4256fe",
    },
    ("theorem-b", 77): {
        "repaired.csv": "edfec8f28d1a0d38164d3af3f1609e217b7795ff2115ffbc2477ff8397059f31",
        "report.json": "d9f1b8ba8fb08bc5db7d3d12d7c55a923624be3e6f538a99089b8cc57c228b73",
        "rigidity.json": "377e1a580153f75733f24e329616c806716dbe5d81c25336abce4cd8136012aa",
        "rows.csv": "ddecf163375aaa2afc3fd1cf1d1f3b432f1f628ee49389fa07cbcff1785a24cb",
    },
}


@pytest.mark.parametrize("experiment,seed", sorted(OUTPUT_SHA256))
def test_transfer_and_repair_outputs_are_pinned(tmp_path, experiment, seed):
    cfg = write_config(tmp_path, {"experiment": experiment, "seed": seed})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    digests = {}
    for path in sorted((tmp_path / "out").iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            doc = json.loads(data)
            del doc["wall_clock_s"]
            data = json.dumps(doc, indent=2).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    assert digests == OUTPUT_SHA256[experiment, seed]


def test_theorem_a_rows_with_a_one_product_orbit_memo(tmp_path, monkeypatch):
    from cocyclelab import cocycles

    # the memo is emptied before every new product: rows must not depend on it
    monkeypatch.setattr(cocycles, "ORBIT_MEMO_CAP", 1)
    assert main(["gen", "conjugated-pair", "--seed", "4", "--param", "psi_window=3",
                 "--out", str(tmp_path)]) == 0
    cfg = tmp_path / "conjugated_pair.json"
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert_rows_pinned(tmp_path / "out", "theorem-a")


def test_theorem_b_rows_with_a_one_entry_memo(tmp_path, monkeypatch):
    from cocyclelab import cocycles

    # the orbit-product and holonomy memos are emptied before every new entry
    monkeypatch.setattr(cocycles, "ORBIT_MEMO_CAP", 1)
    cfg = write_config(tmp_path, {"experiment": "theorem-b", "seed": 5})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert_rows_pinned(tmp_path / "out", "theorem-b")


@pytest.mark.parametrize("name, value, cap", [
    ("triples", 10_001, "TRIPLES_CAP"), ("family_pairs", 1e15, "FAMILY_PAIRS_CAP"),
])
def test_metric_suite_counts_are_capped(name, value, cap):
    # parsed only: were the cap gone, a run of 1e15 family pairs would not end
    with pytest.raises(ConfigError, match=re.escape(
        f"tolerances.{name}: must be a whole number from 1 to 10000 ({cap})"
    )):
        ExperimentConfig.from_json({"experiment": "metric-suite", "tolerances": {name: value}})
    ExperimentConfig.from_json({"experiment": "metric-suite", "tolerances": {name: 10_000}})


def test_run_exit_codes(tmp_path, capsys):
    missing = main(["run", "--config", str(tmp_path / "nope.json")])
    assert missing == 2
    bad = write_config(tmp_path, {"experiment": "unknown"})
    assert main(["run", "--config", str(bad)]) == 2
    # malformed fields and parameters exit 2 with a message naming the field
    space = {"k": 2, "P": [[1, 1], [1, 1]], "rho": 2}
    rotation_doc = rotation_cocycle(SFTSpace.from_json(space), 0, 0).to_json()
    for doc, name in (
        ({"experiment": "theorem-a", "space": space, "cocycles": []}, "cocycles: "),
        ({"experiment": "theorem-a", "tolerances": 1e-6}, "tolerances: "),
        ({"experiment": "theorem-a", "space": space,
          "cocycles": {"F": {"window": 0, "table": []}}}, "cocycles.F: table: "),
        ({"experiment": "distortion", "output_dir": 5}, "output_dir: expected a string"),
        ({"experiment": "distortion", "space": {"k": 257, "P": [[1] * 257] * 257}},
         "space: 257 symbols, more than 256 (SYMBOL_CAP)"),
        ({"experiment": "distortion", "seed": True}, "seed: expected a non-negative integer"),
        # numpy seeds are non-negative; a negative one ended in a numpy ValueError
        *(({"experiment": e, "seed": -1}, "seed: expected a non-negative integer")
          for e in ("theorem-a", "distortion", "closing-lemma")),
        ({"experiment": "distortion", "tolerances": {"horizon": True}}, "tolerances.horizon: "),
        ({"experiment": "distortion", "tolerances": {"horizon": 0.5}}, "tolerances.horizon: "),
        ({"experiment": "distortion", "tolerances": {"horizon": 1e15}}, "tolerances.horizon: "),
        # refused before staircase_cocycle builds its (2 n_max + 7)**2 matrix; never run
        ({"experiment": "holonomy", "tolerances": {"n_max": 0.5}}, "tolerances.n_max: "),
        ({"experiment": "holonomy", "tolerances": {"n_max": 1e15}},
         "tolerances.n_max: must be a whole number from 1 to 200 (N_MAX_CAP)"),
        ({"experiment": "closing-lemma", "tolerances": {"points": 2.5}}, "tolerances.points: "),
        ({"experiment": "metric-suite", "tolerances": {"triples": 0.5}}, "tolerances.triples: "),
        ({"experiment": "metric-suite", "tolerances": {"family_pairs": 0.5}},
         "tolerances.family_pairs: "),
        # spaces a run cannot use: no stationary vector, a stationary vector
        # that is not positive, no fixed point at 0, no cycle 01
        *(({"experiment": e, "space": {"k": 2, "P": P}}, f"space: {e} needs P irreducible")
          for e in ("theorem-a", "theorem-b", "distortion")
          for P in ([[1, 0], [0, 1]], [[1, 1], [0, 1]])),
        # a non-finite coordinate in a table entry, which json reads as a float
        *(({"experiment": "distortion", "space": space,
            "cocycles": {"C": {"window": 0, "table": {
                "0": {"breakpoints": breaks, "values": vals},
                "1": {"breakpoints": [0.0], "values": [0.0]}}}}},
           "cocycles.C: coordinates must be finite")
          for bad in (math.nan, math.inf, -math.inf)
          for breaks, vals in (([0.0, 0.5], [bad, 0.5]), ([0.0, bad], [0.0, 0.5]),
                               ([0.0], [bad]), ([bad], [0.0]))),
        *(({"experiment": e, "space": {"k": 2, "P": [[0, 1], [1, 0]]}},
           f"space: {e} builds on the cycle [0], which P forbids")
          for e in ("theorem-a", "theorem-b")),
        ({"experiment": "distortion", "space": {"k": 3, "P": [[1, 0, 1], [1, 1, 0], [0, 1, 1]]}},
         "space: distortion builds on the cycle [0, 1], which P forbids"),
        # a table key whose symbol is no byte
        ({"experiment": "distortion", "space": {"k": 12, "P": [[1] * 12] * 12},
          "cocycles": {"C": {"window": 0, "table": {"300": {}}}}},
         "cocycles.C: table key '300': symbols must be ints from 0 to 255"),
        # fields the experiment never reads
        ({"experiment": "theorem-b", "space": space, "cocycles": {"F": {}, "G": {}}},
         "cocycles.F: theorem-b reads no cocycles"),
        ({"experiment": "theorem-a", "space": space, "cocycles": {"C": {}}},
         "cocycles.C: theorem-a reads only F, G"),
        ({"experiment": "distortion", "space": space, "cocycles": {"F": {}}},
         "cocycles.F: distortion reads only C"),
        ({"experiment": "holonomy", "space": space}, "space: holonomy reads a space only as"),
        # a config gives all of an experiment's cocycles or none
        ({"experiment": "theorem-a", "space": space, "cocycles": {"F": rotation_doc}},
         "cocycles.G: missing (theorem-a requires cocycles F and G)"),
        *(({"experiment": e, "space": space}, f"space: {e} reads no space")
          for e in ("closing-lemma", "metric-suite")),
        *(({"experiment": e, "cocycles": {"C": {}}}, f"cocycles.C: {e} reads no cocycles")
          for e in ("closing-lemma", "metric-suite")),
    ):
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert f"config error: {name}" in err and "Traceback" not in err
    for args, name in (
        (["conjugated-pair", "--param", "psi_window=abc"], "psi_window: "),
        (["rotation-cocycle", "--param", "window=-1"], "window: "),
        (["rotation-cocycle", "--param", "k=1"], "k: "),
        (["fb-family", "--param", "b=xyz"], "b: "),
        (["fb-family", "--param", "b=3/4"], "b: "),
        *(([kind, "--seed", "-1"], "seed: expected a non-negative integer")
          for kind in FIXTURE_KINDS),
    ):
        assert main(["gen", *args, "--out", str(tmp_path / "gen")]) == 2
        assert f"config error: {name}" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()
    # a seed given on the command line passes the same check as the file's
    cfg = write_config(tmp_path, {"experiment": "distortion"})
    assert main(["run", "--config", str(cfg), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "config error: seed: expected a non-negative integer" in err and "Traceback" not in err


def test_failure_exit_code(tmp_path, capsys):
    # a mismatched pair fails the experiment (exit 1) with named rows
    from cocyclelab import SFTSpace
    from cocyclelab.fixtures import (
        conjugated_pair,
        decaying_rotation_rule,
        perturb_one_entry,
        rotation_cocycle,
    )

    space = SFTSpace.full_shift(2)
    F = perturb_one_entry(rotation_cocycle(space, 1, seed=3), Fraction(1, 20))
    psi = decaying_rotation_rule(space, 2)
    G = conjugated_pair(rotation_cocycle(space, 1, seed=3), psi)
    doc = {
        "experiment": "theorem-a",
        "seed": 1,
        "space": space.to_json(),
        "cocycles": {"F": F.to_json(), "G": G.to_json()},
    }
    cfg = write_config(tmp_path, doc)
    code = main(["run", "--config", str(cfg)])
    # the periodic-data mismatch aborts the pipeline as a library error
    assert code == 1
    err = capsys.readouterr().err
    assert "PeriodicDataMismatch" in err


def test_tolerance_override(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "metric-suite", "seed": 2})
    assert main(["run", "--config", str(cfg), "--tol", "triples=50"]) == 0
    assert main(["run", "--config", str(cfg), "--tol", "triples"]) == 2


def test_tolerances_must_be_positive_and_finite(tmp_path, capsys):
    # an override passes the same check as a tolerance in the file
    for experiment, name, val in (("distortion", "horizon", "-3"), ("distortion", "horizon", "nan"),
                                  ("theorem-a", "residual", "0"), ("distortion", "horizon", "inf")):
        cfg = write_config(tmp_path, {"experiment": experiment})
        assert main(["run", "--config", str(cfg), "--tol", f"{name}={val}"]) == 2
        assert f"config error: tolerances.{name}: must be a positive" in capsys.readouterr().err
    # json reads NaN and Infinity as floats
    for val in ("NaN", "Infinity"):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": "distortion", "tolerances": {"horizon": %s}}' % val)
        assert main(["run", "--config", str(bad)]) == 2
        assert "config error: tolerances.horizon: " in capsys.readouterr().err


def test_each_experiment_reads_only_its_own_tolerances(tmp_path, capsys):
    from cocyclelab.experiments import RUNNERS

    cfg = write_config(tmp_path, {"experiment": "distortion"})
    assert main(["run", "--config", str(cfg), "--tol", "horizn=500"]) == 2
    assert capsys.readouterr().err == (
        "config error: tolerances.horizn: distortion reads only horizon\n"
    )
    # parsed only: a name another experiment reads is refused as well
    with pytest.raises(ConfigError, match=re.escape(
        "tolerances.residual: metric-suite reads only equality, triples, family_pairs"
    )):
        ExperimentConfig.from_json({"experiment": "metric-suite", "tolerances": {"residual": 1}})
    for experiment, (_, _, reads, *_) in RUNNERS.items():
        cfg = ExperimentConfig.from_json({"experiment": experiment, "tolerances": dict(reads)})
        assert {name: cfg.tol(name) for name in reads} == reads


def test_gen_stops_at_the_enumeration_cap(tmp_path, monkeypatch, capsys):
    from cocyclelab import symbolic

    monkeypatch.setattr(symbolic, "ENUMERATION_CAP", 100)
    # window 3 on the full 2-shift needs 2**7 = 128 table words
    args = ["gen", "rotation-cocycle", "--param", "window=3", "--out", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "ResourceLimit: words of length 7 exceeded enumeration cap 100" in err
    assert not (tmp_path / "rotation_cocycle.json").exists()


def test_gen_and_run_stop_at_the_table_entry_cap(tmp_path, capsys):
    # window 8 on the full 2-shift needs 2**17 table words, refused before any is built
    args = ["gen", "rotation-cocycle", "--param", "window=8", "--out", str(tmp_path)]
    assert main(args) == 1
    assert "ResourceLimit: rotation_cocycle: a window-8 table" in capsys.readouterr().err
    assert not (tmp_path / "rotation_cocycle.json").exists()
    # a config's table is counted before it is compared with the space's words
    doc = {"experiment": "distortion", "space": {"k": 2, "P": [[1, 1], [1, 1]], "rho": 2},
           "cocycles": {"C": {"window": 8, "table": {}}}}
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "config error: cocycles.C: CocycleSpec: a window-8 table" in err


def test_gen_refuses_k_past_the_table_entry_cap(tmp_path, monkeypatch, capsys):
    # the full k-shift's matrix has k*k entries: k = 128 reaches TABLE_ENTRY_CAP
    # exactly, and k = 2000 is refused before its 4,000,000-entry matrix is built
    from cocyclelab.symbolic import SFTSpace

    built = []
    full_shift = SFTSpace.full_shift
    monkeypatch.setattr(SFTSpace, "full_shift", lambda k: built.append(k) or full_shift(k))
    out = tmp_path / "gen"
    args = ["gen", "rotation-cocycle", "--param", "window=0", "--out", str(out)]
    assert main([*args, "--param", "k=2000"]) == 2
    assert built == []
    err = capsys.readouterr().err
    assert "config error: k: the full 2000-shift has 4000000 2-words, more than 16384" in err
    assert "TABLE_ENTRY_CAP" in err and not (out / "rotation_cocycle.json").exists()
    for k in (2, 128):
        assert main([*args, "--param", f"k={k}"]) == 0
        doc = json.loads((out / "rotation_cocycle.json").read_text())
        assert doc["space"]["k"] == k and len(doc["cocycles"]["C"]["table"]) == k
    assert built == [2, 128]


def test_run_stops_at_the_config_byte_cap(tmp_path, capsys):
    from cocyclelab.cli import CONFIG_BYTES_CAP

    doc = json.dumps({"experiment": "distortion"})
    cfg = tmp_path / "padded.json"
    cfg.write_text(doc + " " * (CONFIG_BYTES_CAP + 1 - len(doc)))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: config: {cfg} exceeds {CONFIG_BYTES_CAP} bytes" in err
    cfg.write_text(doc + " " * (CONFIG_BYTES_CAP - len(doc)))  # one byte less runs
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert_rows_pinned(tmp_path / "out", "distortion")
    # the bytes read are decoded as JSON decodes them; bad UTF-8 is a config error
    cfg.write_bytes(b'{"experiment": "\xff"}')
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error: config: invalid JSON" in capsys.readouterr().err


def test_metric_suite_chain_bound_at_large_seed(tmp_path):
    # float triples of this seed overshoot L(g)L(f) by a few ulps (3.2e-12
    # absolute), which an absolute 1e-12 bound rejected
    cfg = write_config(tmp_path, {"experiment": "metric-suite", "seed": 1227336022000})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert_rows_pinned(tmp_path / "out", "metric-suite")
    rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()
    chain = next(r for r in rows if r.startswith("lipschitz-chain-bound,"))
    assert chain.endswith(",1")


def test_deterministic_rows(tmp_path):
    cfg_doc = {"experiment": "closing-lemma", "seed": 9}
    cfg = write_config(tmp_path, cfg_doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    rows_a = (tmp_path / "a" / "rows.csv").read_bytes()
    rows_b = (tmp_path / "b" / "rows.csv").read_bytes()
    assert rows_a == rows_b
    assert_rows_pinned(tmp_path / "a", "closing-lemma")
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["rows"] == rb["rows"]
    assert ra["inputs_digest"] == rb["inputs_digest"]


def test_holonomy_experiment_writes_convergence_table(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "holonomy", "seed": 3})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert_rows_pinned(tmp_path / "out", "holonomy")
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,increment,bound"
    assert len(lines) > 10


def test_theorem_b_writes_rigidity_json(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "theorem-b", "seed": 5})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert_rows_pinned(tmp_path / "out", "theorem-b")
    doc = json.loads((tmp_path / "out" / "rigidity.json").read_text())
    assert "beta_gamma" in doc and len(doc["repaired"]) == 10
    repaired = (tmp_path / "out" / "repaired.csv").read_text().splitlines()
    assert repaired[0] == "point,change" and len(repaired) == 11
