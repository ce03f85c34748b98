import contextlib
import csv
import hashlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec import cli
from ergodec.cli import SCHEMAS, load_config, main, run_experiment
from ergodec.reporting import (
    ResultRecord,
    Verdict,
    canonical_json,
    cell_str,
    fraction_str,
    to_jsonable,
    write_csv,
)

FAST_VALIDATE = {
    "window": 8,
    "level": 4,
    "trials": 200,
    "sweep_window": 3,
    "sweep_level": 2,
    "tower_window": 3,
    "tower_cap": 3,
    "fubini_window": 3,
    "invariance_level": 3,
}

# Five binomial sd of a recovered 0.3/0.7 weight at 200 points: the default
# 0.01/0.02 bounds sit below the sampling error of 200 points.
FAST_DEFINETTI_TOL = 5 * math.sqrt(0.3 * 0.7 / 200)
FAST_DEFINETTI = {
    "samples": 200,
    "window": 256,
    "mc_samples": 128,
    "residual_bound": FAST_DEFINETTI_TOL,
    "recovery_tolerance": FAST_DEFINETTI_TOL,
}


def test_fraction_and_cell_formatting():
    assert fraction_str(Fraction(3, 7)) == "3/7"
    assert cell_str(0.1) == "0.1"
    assert cell_str(Fraction(1, 3)) == "1/3"
    assert cell_str(7) == "7"


def test_to_jsonable_handles_numpy_and_fractions():
    import numpy as np

    payload = {"a": Fraction(1, 2), "b": np.float64(0.25), "c": np.int32(3), "d": (1, 2)}
    assert to_jsonable(payload) == {"a": "1/2", "b": 0.25, "c": 3, "d": [1, 2]}


def test_canonical_json_sorted_and_stable():
    s1 = canonical_json({"b": 1, "a": [Fraction(2, 3)]})
    s2 = canonical_json({"a": [Fraction(2, 3)], "b": 1})
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"')


def test_result_record_roundtrip():
    rec = ResultRecord(
        experiment="demo",
        config={"x": 1},
        verdicts=[Verdict(name="check", passed=True, detail={"n": 2})],
    )
    data = json.loads(rec.to_json())
    assert data["experiment"] == "demo"
    assert data["verdicts"][0]["passed"] is True
    assert rec.all_passed


def test_write_csv_repr_floats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[0.1, Fraction(1, 3)], [2, 0.25]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.1,1/3"
    assert lines[2] == "2,0.25"


def test_load_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    with pytest.raises(ValueError):
        load_config("definetti", str(bad), {})


def test_cli_unknown_key_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    assert main(["definetti", "--config", str(bad)]) == 2


def test_load_config_accepts_schema_types(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"tolerance": 0, "beta": [2, 3.5], "expected_weights": None}))
    cfg = load_config("definetti", str(good), {})
    assert cfg["tolerance"] == 0 and cfg["beta"] == [2, 3.5]
    weights = {"0": 1, "1": 0.5, "2": "1/3", "10": "2.5"}
    good.write_text(json.dumps({"orbit_weights": weights}))
    assert load_config("sigma-finite", str(good), {})["orbit_weights"] == weights


@pytest.mark.parametrize(
    "name, user",
    [
        ("validate", {"window": "abc"}),
        ("orbital", {"schedule": [1, 2.5]}),
        ("definetti", {"beta": [2, "3"]}),
        ("sigma-finite", {"orbit_weights": {"1": [1]}}),
        ("sigma-finite", {"orbit_weights": {"1": True}}),
        ("sigma-finite", {"orbit_weights": {"x": "1"}}),
        ("sigma-finite", {"orbit_weights": {"-1": "1"}}),
        ("sigma-finite", {"orbit_weights": {"1": "x"}}),
    ],
)
def test_load_config_rejects_mistyped_values(tmp_path, name, user):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user))
    with pytest.raises(ValueError, match="mistyped"):
        load_config(name, str(bad), {})


# JSON value kinds; the lists hold strings, which no list key accepts.
_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != int(v)),
    "str": st.text(max_size=5),
    "list": st.lists(st.text(max_size=3), min_size=1, max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    # An orbit-weight dict with one entry that is not a non-negative integer
    # string mapped to a number (never a bool) or a fraction string.
    "bad-dict": st.one_of(
        st.tuples(
            st.text(max_size=3).filter(lambda k: not (k.isascii() and k.isdigit())),
            st.integers(0, 9),
        ),
        st.tuples(
            st.just("1"),
            st.one_of(
                st.none(),
                st.booleans(),
                st.lists(st.integers(), max_size=2),
                st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                st.sampled_from(["", "x", "1/0", "nan"]),
            ),
        ),
    ).map(lambda kv: {"2": 1, kv[0]: kv[1]}),
}
_NULLABLE_KINDS = {"bernoulli": {"int", "float"}, "expect": {"str"}}


def _accepted_kinds(key, default):
    if default is None:
        return {"null"} | _NULLABLE_KINDS.get(key, set())
    if isinstance(default, float):
        return {"int", "float"}
    return {int: {"int"}, dict: {"dict"}, list: set()}[type(default)]


@pytest.mark.parametrize(
    "name, key", [(name, key) for name, schema in SCHEMAS.items() for key in schema]
)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_cli_mistyped_config_exits_2_before_running(name, key, data):
    wrong = sorted(set(_KINDS) - _accepted_kinds(key, SCHEMAS[name][key]))
    _assert_config_error(name, key, data.draw(st.sampled_from(wrong).flatmap(_KINDS.get)))


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name, schema in SCHEMAS.items() for key, v in schema.items()
     if isinstance(v, dict)],
)
@settings(max_examples=25, deadline=None)
@given(value=_KINDS["bad-dict"])
def test_cli_mistyped_dict_entry_exits_2_before_running(name, key, value):
    _assert_config_error(name, key, value)


def _assert_config_error(name, key, value):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), mock.patch.object(
        cli, "run_experiment", side_effect=AssertionError("experiment started")
    ):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({key: value}))
        assert main([name, "--config", str(path)]) == 2
    assert err.getvalue().startswith("config error: mistyped config values")
    assert "Traceback" not in err.getvalue()


# sha256 of every output file at --seed 7, recorded on the code before the
# orbit-class scan replaced the 2^c union sweep (commit c626bd9). The orbital
# digests were recorded again when its series became the exact closed form
# (3/n for r_1 and r_2, 6/(n(n-1)) for r_1_2, stderr 0) in place of Monte
# Carlo estimates above level 8. The definetti digests (configs in
# RECORDED_DEFINETTI_CONFIGS) were recorded on the per-point closed-form
# limit statistic (commit 4eaa553), before it was batched over the points of
# a block. The kolmogorov digest was recorded again when each configuration
# drew its ones count as one binomial instead of a window of bits: the
# frequency-event mass at --seed 7 moved from 0.5018 to 0.4969, its stderr and
# narrative line with it.
RECORDED_DEFINETTI_CONFIGS = {
    "definetti": {**FAST_DEFINETTI, "depth": 3, "width": 3},
    "definetti-beta": {"beta": [2, 3], "samples": 150, "window": 256, "mc_samples": 128},
}
RECORDED_OUTPUT_SHA256 = {
    "validate/result.json": "192187817a6edc4c97ad1111f6525a91a2fcecdd304103c96cfb81356ce79714",
    "kolmogorov/result.json": "bfa1033d1f6c65546284f6676771d26035f5b237f7da7fd7fce83100fc477519",
    "sigma-finite/result.json": "2a0ff106521fc08b0b81f41dee9cc784f5fc42a98b96b78a5d13fb2b2dd271d8",
    "sigma-finite/components.csv": "9ec09b235fe23b2e761a8a71c58c5674fa04dd77d7036330417bd3c65b6e8c87",
    "orbital/result.json": "469f276112685ded95f7088a90317075d7610a396aa3d3a2a4867f0884e01ddc",
    "orbital/series.csv": "c885cf891c559a5d9de24436f91212cec43fb3a751d626b3292ff427fe224eb9",
    "definetti/result.json": "7fdea2eab0c990bb8228638330b52cd88740a259f6ec1a66799c747052ded26f",
    "definetti/samples.csv": "dd3bb41a2c400eb47c2f96a75b229db707bc24869a6865f35cc7959fd435eac3",
    "definetti/components.csv": "599db820cb064f01d6860818aff672406aae482c40668af2ad5b297d07fb0468",
    "definetti-beta/result.json": "693aa186c2af9346910e9b1d616764d24731af8396ab4c90189c807c0f837a8d",
    "definetti-beta/samples.csv": "68796a2f5d774e89b21a925f80c63dad19c6a8d9c2f8a096d68b291d1ca7b719",
}


def test_outputs_match_recorded_hashes(tmp_path):
    out = tmp_path / "out"
    for name in ("validate", "kolmogorov", "sigma-finite", "orbital"):
        assert main([name, "--seed", "7", "--out", str(out / name)]) == 0
    for name, cfg in RECORDED_DEFINETTI_CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        argv = ["definetti", "--config", str(path), "--seed", "7", "--out", str(out / name)]
        assert main(argv) == 0
    got = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*/*"))
        if p.name != "meta.json"
    }
    assert got == RECORDED_OUTPUT_SHA256


def test_validate_subcommand_passes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST_VALIDATE))
    out = tmp_path / "out"
    code = main(["validate", "--config", str(cfg), "--seed", "3", "--out", str(out)])
    assert code == 0
    record = json.loads((out / "result.json").read_text())
    assert all(v["passed"] for v in record["verdicts"])
    assert (out / "meta.json").exists()


def test_validate_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST_VALIDATE))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["validate", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
        outs.append((out / "result.json").read_bytes())
    assert outs[0] == outs[1]


def test_definetti_byte_identical_across_runs_and_workers(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST_DEFINETTI))
    blobs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        code = main(
            ["definetti", "--config", str(cfg), "--seed", "42", "--out", str(out),
             "--workers", workers]
        )
        assert code == 0
        blobs.append(
            (out / "result.json").read_bytes()
            + (out / "samples.csv").read_bytes()
            + (out / "components.csv").read_bytes()
        )
    assert blobs[0] == blobs[1] == blobs[2]


def test_definetti_csv_matches_record_bit_exactly(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST_DEFINETTI))
    out = tmp_path / "out"
    assert main(["definetti", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    record = json.loads((out / "result.json").read_text())
    table = {row["label"]: row for row in record["tables"]["components"]}
    with open(out / "components.csv") as fh:
        for row in csv.DictReader(fh):
            want = table[row["label"]]
            assert float(row["weight"]) == want["weight"]
            assert float(row["center"]) == want["center"]
            assert int(row["count"]) == want["count"]


def test_definetti_mixture_recovery_verdict(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                **FAST_DEFINETTI,
                "samples": 600,
                "residual_bound": 0.05,
                "expected_weights": [0.3, 0.7],
                "expected_centers": [0.2, 0.8],
                "recovery_tolerance": 0.06,
            }
        )
    )
    out = tmp_path / "out"
    assert main(["definetti", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    record = json.loads((out / "result.json").read_text())
    names = {v["name"]: v["passed"] for v in record["verdicts"]}
    assert names["mixture-recovery"]


def test_definetti_continuous_mode(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"beta": [2, 3], "samples": 150, "window": 256, "mc_samples": 128})
    )
    out = tmp_path / "out"
    assert main(["definetti", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    record = json.loads((out / "result.json").read_text())
    assert record["tables"] == {}
    assert (out / "samples.csv").exists()


def test_kolmogorov_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": 1024, "samples": 2000}))
    out = tmp_path / "out"
    assert main(["kolmogorov", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    record = json.loads((out / "result.json").read_text())
    names = {v["name"] for v in record["verdicts"]}
    assert "full-group-zero-one-law" in names


def test_sigma_finite_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["sigma-finite", "--seed", "2", "--out", str(out)]) == 0
    record = json.loads((out / "result.json").read_text())
    assert {v["name"] for v in record["verdicts"]} == {
        "pcl-constant-under-reweighting",
        "class-descriptor-transfer",
        "normalization-roundtrip",
    }
    assert (out / "components.csv").exists()


def test_orbital_subcommand_escape(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "window": 1024,
                "ones": 3,
                "schedule": [1, 2, 4, 8, 16, 64, 256, 1000],
                "samples": 1000,
                "expect": "escapes-mass",
            }
        )
    )
    out = tmp_path / "out"
    assert main(["orbital", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "series.csv")))
    assert rows and {"entry", "level", "value", "stderr"} == set(rows[0])


def test_run_experiment_returns_record_without_output_dir():
    record = run_experiment("validate", {**load_config("validate", None, {}), **FAST_VALIDATE},
                            seed=3, workers=1, out_dir=None)
    assert record.all_passed


def test_failed_verdict_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "window": 1024,
                "ones": 3,
                "schedule": [1, 2, 4, 8, 16, 64, 256, 1000],
                "samples": 1000,
                "expect": "converges-to-probability",
            }
        )
    )
    assert main(["orbital", "--config", str(cfg), "--seed", "4"]) == 1


def test_definetti_nonconvergence_is_a_failed_verdict(tmp_path):
    # at window 4 more than half the points fail limit detection: the run
    # still writes its record and exits 1, not 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": 4, "samples": 200}))
    out = tmp_path / "out"
    assert main(["definetti", "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "result.json").read_text())
    verdict = next(v for v in record["verdicts"] if v["name"] == "limit-detection")
    assert not verdict["passed"]
    assert verdict["detail"]["non_converged_fraction"] > 0.01
    assert (out / "components.csv").exists()
