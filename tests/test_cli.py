import csv
import json
import math
from fractions import Fraction

import pytest

from ergodec.cli import load_config, main, run_experiment
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
