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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec import cli, reporting
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


def _write_csv_per_cell(path, header, rows):
    """``write_csv`` as it stood before it formatted column by column: every
    cell through ``cell_str`` and ``csv.writer``. The reference for its bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell_str(v) for v in row] for row in rows)


_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-310,
                     0.1, 1.0]),
)
_CSV_CELLS = st.one_of(
    _CSV_FLOATS,
    _CSV_FLOATS.map(np.float64),
    st.integers(-(10**20), 10**20),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.fractions(),
    st.text(st.sampled_from('ab ,"\r\n'), max_size=4),
)
# one strategy per column kind: all floats (a few values, heavily repeated),
# all np.float64, all ints, 0.0 with -0.0, 1 with 1.0 and True, a few values
# of any kind, and anything
_CSV_COLUMNS = st.one_of(
    st.lists(_CSV_FLOATS, min_size=1, max_size=3).map(st.sampled_from),
    st.just(_CSV_FLOATS),
    st.just(_CSV_FLOATS.map(np.float64)),
    st.just(st.integers(-(10**20), 10**20)),
    st.lists(_CSV_CELLS, min_size=1, max_size=3).map(st.sampled_from),
    st.just(st.sampled_from([0.0, -0.0])),
    st.just(st.sampled_from([1, 1.0, True])),
    st.just(_CSV_CELLS),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from('r_1 ,"\n'), max_size=4), max_size=4),
       st.lists(_CSV_COLUMNS, min_size=1, max_size=4), st.integers(0, 30), st.data())
def test_write_csv_has_the_bytes_of_the_per_cell_writer(header, kinds, n_rows, data):
    columns = [data.draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    rows = [list(row) for row in zip(*columns)]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_csv(got, header, rows)
        _write_csv_per_cell(want, header, rows)
        assert got.read_bytes() == want.read_bytes()
    # the float and np.float64 columns as a (non-contiguous) float64 array
    float_columns = [col for col in columns if all(isinstance(v, float) for v in col)]
    if float_columns:
        values = np.array(float_columns, dtype=np.float64).reshape(len(float_columns), n_rows).T
        indexed = [[i] + row for i, row in enumerate(values.tolist())]
        want = _csv_bytes(_write_csv_per_cell, header, indexed)
        assert _csv_bytes(write_csv, header, values) == want


@pytest.mark.parametrize("rows", [
    [],
    [[], []],
    [[""], [0.5]],
    [[1.5], [], [2, "x,y"], [-0.0, 0.0, math.nan]],
    [[0.25] * 3] * 5 + [[0.25, 0.25]],
])
def test_write_csv_ragged_and_empty_rows(tmp_path, rows):
    write_csv(tmp_path / "got.csv", ["a"], rows)
    _write_csv_per_cell(tmp_path / "want.csv", ["a"], rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _csv_bytes(writer, header, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        writer(path, header, rows)
        return path.read_bytes()


# cells a float column of the fast path must never reuse a float row's text
# for: equal to a float and hashed alike, but of another type
_FLOAT_LOOKALIKES = [True, False, 1, 0, np.float64(0.5), np.float64(-0.0), Fraction(1, 2)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.lists(
           st.lists(_CSV_FLOATS, min_size=w, max_size=w), min_size=1, max_size=4)),
       st.integers(0, 60), st.data())
def test_write_csv_of_repeated_index_float_rows_has_the_per_cell_bytes(pool, n_rows, data):
    # a few distinct float rows, heavily repeated, under an int index; the
    # same rows as a float64 array, written after their 0-based index; then
    # the list table with one float cell swapped for a non-float that equals
    # some float (1 == 1.0 == True)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_rows, max_size=n_rows))
    index = data.draw(st.lists(st.integers(-(10**20), 10**20), min_size=n_rows,
                               max_size=n_rows) | st.just(list(range(n_rows))))
    rows = [[i] + list(pool[k]) for i, k in zip(index, picks)]
    header = ["index"] + [f"r_{j}" for j in range(len(pool[0]))]
    want = _csv_bytes(_write_csv_per_cell, header, rows)
    assert _csv_bytes(write_csv, header, rows) == want
    values = np.array([pool[k] for k in picks], dtype=np.float64).reshape(n_rows, len(pool[0]))
    indexed = [[i] + row for i, row in enumerate(values.tolist())]
    want = _csv_bytes(_write_csv_per_cell, header, indexed)
    assert _csv_bytes(write_csv, header, values) == want
    if rows:
        assert reporting._index_float_text(rows) is not None
        r = data.draw(st.integers(0, n_rows - 1))
        c = data.draw(st.integers(1, len(pool[0])))
        rows[r][c] = data.draw(st.sampled_from(_FLOAT_LOOKALIKES))
        assert reporting._index_float_text(rows) is None
        assert _csv_bytes(write_csv, header, rows) == _csv_bytes(_write_csv_per_cell, header, rows)


@pytest.mark.parametrize("rows", [
    # 0.0 and -0.0 in one column: one key, two reprs
    [[0, 0.0, 0.5], [1, -0.0, 0.5], [2, 0.0, 0.5], [3, -0.0, 0.5], [4, 0.25, 0.5]],
    [[i, (-0.0, 0.0)[i % 2], -0.0] for i in range(7)],
    # NaN and infinite rows, repeated
    [[i, (math.nan, math.inf, -math.inf, 0.1)[i % 4], math.nan] for i in range(9)],
    [[0, float("nan")], [1, float("nan")], [2, math.nan], [3, math.nan]],
    # one bool, np.float64 or int cell equal to a float in the column
    [[0, 1.0, 0.5], [1, True, 0.5], [2, 1.0, 0.5]],
    [[0, 1.0, 0.5], [1, 1, 0.5], [2, 1.0, 0.5]],
    [[0, 0.5, 0.25], [1, np.float64(0.5), 0.25], [2, 0.5, 0.25]],
    [[0, 0.0, 0.5], [1, False, 0.5], [2, np.float64(-0.0), 0.5]],
    # an index that is not a Python int
    [[True, 0.5], [1, 0.5]],
    [[np.int64(0), 0.5], [1, 0.5]],
    [[0.0, 0.5], [1, 0.5]],
])
def test_write_csv_fast_path_special_rows(tmp_path, rows):
    write_csv(tmp_path / "got.csv", ["a", "b", "c"], rows)
    _write_csv_per_cell(tmp_path / "want.csv", ["a", "b", "c"], rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("config", [FAST_DEFINETTI, {"beta": [2, 3], "samples": 150,
                                                     "window": 256}])
def test_definetti_samples_csv_is_handed_over_as_the_statistics_array(config):
    # samples.csv is the headline output: run_definetti hands write_csv the
    # float64 statistics array itself, with no per-row list copy
    cfg = load_config("definetti", None, config)
    _, csvs = cli.run_definetti(cfg, 5)
    header, rows = csvs["samples.csv"]
    assert header[0] == "index"
    assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
    assert rows.flags.c_contiguous
    assert rows.shape == (cfg["samples"], len(header) - 1)


@pytest.mark.parametrize("rows", [
    np.zeros(3), np.zeros((2, 0)), np.zeros((2, 2), dtype=np.float32),
    np.zeros((2, 2), dtype=np.int64), np.zeros((1, 2, 2)),
])
def test_write_csv_rejects_an_array_that_is_not_a_float64_table(tmp_path, rows):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], rows)


def test_load_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    with pytest.raises(ValueError):
        load_config("definetti", str(bad), {})


def test_cli_unknown_key_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    assert main(["definetti", "--config", str(bad)]) == 2


@pytest.mark.parametrize("user", [{"trials": 0}, {"trials": -3}, {"tower_cap": 0}])
def test_validate_vacuous_identity_checks_exit_2(tmp_path, capsys, user):
    # no trial or no level pair: the verdict could not fail, so the run does not start
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(user))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run error" in capsys.readouterr().err
    assert not out.exists()


# Level keys past their caps, below 1 or past their windows, with the message
# each run stops with
_BAD_LEVELS = [
    ({"fubini_window": 9}, "fubini_window is capped at 8"),
    ({"sweep_level": 9}, "sweep_level is capped at 8"),
    ({"tower_cap": 9}, "tower_cap is capped at 8"),
    ({"invariance_level": 9}, "invariance_level is capped at 8"),
    ({"sweep_level": 0}, "sweep_level must be >= 1; got 0"),
    ({"fubini_window": 0}, "fubini_window must be >= 1; got 0"),
    ({"sweep_window": 1}, "sweep_level exceeds sweep_window (1); got 2"),
    ({"tower_window": 2, "tower_cap": 3}, "tower_cap exceeds tower_window (2); got 3"),
]


@pytest.mark.parametrize("user", [user for user, _ in _BAD_LEVELS])
def test_validate_levels_past_the_caps_exit_2_before_any_check(
    tmp_path, capsys, monkeypatch, user
):
    # fubini_window 9 would first run every check at levels 1-8 (S(8) on 512
    # atoms) and only then reach the cap, and a level below 1 or past its
    # window would stop only at its own check, after both cocycle-identity
    # verdicts: every level key is read up front
    import ergodec.validation

    calls = []
    for name in ("verify_identity", "conditional_expectation_check", "tower_check",
                 "fubini_check", "invariance_check"):
        monkeypatch.setattr(ergodec.validation, name,
                            lambda *args, name=name, **kwargs: calls.append(name))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(user))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    assert next(m for u, m in _BAD_LEVELS if u == user) in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_parser_is_built_once_and_keeps_no_state():
    assert cli._parser() is cli._parser()
    first = cli._parser().parse_args(["orbital", "--seed", "5", "--workers", "2"])
    again = cli._parser().parse_args(["validate"])
    assert (first.subcommand, first.seed, first.workers) == ("orbital", 5, 2)
    assert (again.subcommand, again.seed, again.workers, again.config, again.out) == (
        "validate", 0, 1, None, None)


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
# narrative line with it. The definetti digests were recorded again when
# exchangeable inputs began to draw each point's sufficient statistic (its
# first bits and its ones counts at the evaluated levels, from one stream) in
# place of its window: other draws of the same law move every sample row and
# the components, and result.json also gained the barycenter-residual sd.
# definetti-beta/result.json (continuous mode: no components, no residual,
# no point failing limit detection) kept its digest. The kolmogorov digest was
# recorded again when the default frequency_tolerance went from 0.02 to
# 0.025: the config echo is the only line of result.json that changed. The
# validate digest was recorded again when the suite gained its seventh
# verdict, exact-ergodic-decomposition, appended after the other six, whose
# lines did not change.
RECORDED_DEFINETTI_CONFIGS = {
    "definetti": {**FAST_DEFINETTI, "depth": 3, "width": 3},
    "definetti-beta": {"beta": [2, 3], "samples": 150, "window": 256, "mc_samples": 128},
}
RECORDED_OUTPUT_SHA256 = {
    "validate/result.json": "2ce0bc2dd03126afb41da86f530ddebe84aa8fa50d7ac059879c7eb5a9e39283",
    "kolmogorov/result.json": "93d430ef6a8a61a6460ae26a8b067af01f51aebabf1e8ae3510436d522a02d24",
    "sigma-finite/result.json": "2a0ff106521fc08b0b81f41dee9cc784f5fc42a98b96b78a5d13fb2b2dd271d8",
    "sigma-finite/components.csv": "9ec09b235fe23b2e761a8a71c58c5674fa04dd77d7036330417bd3c65b6e8c87",
    "orbital/result.json": "469f276112685ded95f7088a90317075d7610a396aa3d3a2a4867f0884e01ddc",
    "orbital/series.csv": "c885cf891c559a5d9de24436f91212cec43fb3a751d626b3292ff427fe224eb9",
    "definetti/result.json": "ce3877338716f625547aeba4810ccc6dab6f6c5af11aa73a42d3de80a3e3ffdc",
    "definetti/samples.csv": "a5a07813f89c5e1cd3b7f1fbf6637c2a5ba7cfff992a54273fef467ec3adc860",
    "definetti/components.csv": "088cb4fbb2b3ca6ba3b25ca16d1560c7366c6fc5edd6526b488bb0b413ea2cb2",
    "definetti-beta/result.json": "693aa186c2af9346910e9b1d616764d24731af8396ab4c90189c807c0f837a8d",
    "definetti-beta/samples.csv": "f837bc4819face82e2fc1389ee8783fd0cafac9351cedf5c25b1e7bb4a067018",
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


@pytest.mark.parametrize("user", [{}, FAST_VALIDATE])
def test_validate_runs_the_exact_decomposition_on_the_sweep_model(user):
    # one cell per ones count of the sweep window, at the defaults and at
    # the fast config alike
    from ergodec.validation import DEFAULTS, run_validation_suite

    verdicts = {v.name: v for v in run_validation_suite(user, seed=0)}
    verdict = verdicts["exact-ergodic-decomposition"]
    window = {**DEFAULTS, **user}["sweep_window"]
    assert verdict.passed and verdict.detail["cells"] == window + 1


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


def _legacy_cell(v) -> str:
    """``cell_str``'s format by isinstance checks alone: the reference for
    its ``type(v) is float`` fast path."""
    if isinstance(v, Fraction):
        return fraction_str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


@pytest.mark.parametrize("config", [FAST_DEFINETTI, {"beta": [2, 3], "samples": 150,
                                                     "window": 256}])
def test_definetti_samples_csv_has_the_bytes_of_the_per_cell_writer(tmp_path, config):
    # samples.csv rows come from statistics.tolist(); the rows built cell by
    # cell from the same statistics (float(v) of each numpy value, one
    # writerow per row) give the same bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["definetti", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    with open(out / "samples.csv") as fh:
        header, *lines = list(csv.reader(fh))
    stats = np.array([[float(v) for v in line[1:]] for line in lines])
    legacy = io.StringIO(newline="")
    writer = csv.writer(legacy)
    writer.writerow(header)
    for i in range(stats.shape[0]):
        writer.writerow([_legacy_cell(v) for v in [i] + [float(v) for v in stats[i]]])
    assert (out / "samples.csv").read_bytes() == legacy.getvalue().encode()


def test_definetti_residual_verdict_reports_its_multinomial_sd(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST_DEFINETTI))
    out = tmp_path / "out"
    assert main(["definetti", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    record = json.loads((out / "result.json").read_text())
    detail = next(v["detail"] for v in record["verdicts"] if v["name"] == "barycenter-residual")
    # two components of weight w at first-moment masses near 0.2 and 0.8:
    # the one-pin cylinders give sd sqrt(w (1 - w) 0.6^2 / 200)
    w = min(c["weight"] for c in record["tables"]["components"])
    assert detail["bound"] == FAST_DEFINETTI_TOL
    assert abs(detail["sd"] - math.sqrt(w * (1 - w) * 0.36 / 200)) < 0.002


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


def _failed_definetti_verdicts(tmp_path, config: dict, seed: int):
    """Exit code and names of the failed verdicts of one definetti run at
    the schema defaults overridden by config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["definetti", "--config", str(cfg), "--seed", str(seed), "--out", str(out)])
    record = json.loads((out / "result.json").read_text())
    return code, [v["name"] for v in record["verdicts"] if not v["passed"]]


def test_definetti_defaults_pass_where_2000_points_failed(tmp_path):
    # at 2000 points seed 4 failed barycenter-residual against the default
    # bound 0.01; the default sample size is sized to that bound
    assert SCHEMAS["definetti"]["samples"] == 20000
    assert _failed_definetti_verdicts(tmp_path, {}, 4) == (0, [])


@pytest.mark.parametrize(
    "override,failed",
    [
        ({"min_gap": 0.9}, ["barycenter-residual"]),
        (
            {"expected_weights": [0.35, 0.65], "expected_centers": [0.2, 0.8]},
            ["mixture-recovery"],
        ),
    ],
)
def test_definetti_default_verdicts_keep_their_power(tmp_path, override, failed):
    # negative controls at the default sample size: one merged component
    # misses the barycenter, and weights off by 0.05 miss recovery
    assert _failed_definetti_verdicts(tmp_path, override, 3) == (1, failed)


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


def test_kolmogorov_default_tolerance_is_five_sd_of_the_event_mass(tmp_path):
    # seed 4309 reads mass 0.4785: 4.3 sd of Bin(10000, 1/2) / 10000 from 1/2,
    # a false alarm at the 4-sd tolerance 0.02 that 5 sd (0.025) passes
    assert main(["kolmogorov", "--seed", "4309", "--out", str(tmp_path / "default")]) == 0
    record = json.loads((tmp_path / "default" / "result.json").read_text())
    (mass,) = [v["detail"]["mass"] for v in record["verdicts"]
               if v["name"] == "frequency-event-mass"]
    assert mass == 0.4785
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frequency_tolerance": 0.02}))
    argv = ["kolmogorov", "--config", str(cfg), "--seed", "4309", "--out", str(tmp_path / "tight")]
    assert main(argv) == 1


def test_kolmogorov_parameters_on_one_side_of_half_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p_low": 0.6}))
    out = tmp_path / "out"
    assert main(["kolmogorov", "--config", str(cfg), "--out", str(out)]) == 2
    assert "p_low < 1/2 < p_high" in capsys.readouterr().err
    assert not out.exists()


def test_kolmogorov_without_samples_exits_2(tmp_path, capsys):
    # no configuration drawn: the frequency-event mass would divide by zero
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 0}))
    out = tmp_path / "out"
    assert main(["kolmogorov", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("user", [
    {"reweightings": 0, "pairs": 0, "roundtrips": 0},
    {"reweightings": 0},
    {"reweightings": -2},
    {"pairs": 0},
    {"roundtrips": 0},
])
def test_sigma_finite_vacuous_verdicts_exit_2(tmp_path, capsys, user):
    # no reweighting, pair or roundtrip: the verdict could not fail
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(user))
    out = tmp_path / "out"
    assert main(["sigma-finite", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("user", [{"residual_depth": 0}, {"min_gap": 0.0}])
def test_definetti_degenerate_clustering_exits_2(tmp_path, capsys, user):
    # depth 0 compares no cylinder (a residual that cannot fail), and a gap
    # of 0 makes every point a component of its own
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 200, "window": 256, **user}))
    out = tmp_path / "out"
    assert main(["definetti", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", [0.0, -1.0])
def test_definetti_nonpositive_tolerance_exits_2(tmp_path, capsys, tolerance):
    # an out-of-range limit-rule tolerance exits 2 before anything is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 200, "window": 256, "tolerance": tolerance}))
    out = tmp_path / "out"
    assert main(["definetti", "--config", str(cfg), "--out", str(out)]) == 2
    assert "tolerance must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, user, message", [
    # weights without centers have nothing to pair with, centers alone
    # nothing to check, and zip would cut unequal lengths short
    ("definetti", {"expected_weights": [0.3, 0.7]}, "go together"),
    ("definetti", {"expected_centers": [0.2, 0.8]}, "go together"),
    ("definetti", {"expected_weights": [0.3, 0.7], "expected_centers": [0.2]}, "go together"),
    # int() would run Beta(1.5, 2) as Beta(1, 2)
    ("definetti", {"beta": [1.5, 2.0]}, "integer shape parameters"),
    # the configuration would clamp to all ones, or to none
    ("orbital", {"window": 4096, "ones": 5000}, "ones must lie in 0..window"),
    ("orbital", {"ones": -1}, "ones must lie in 0..window"),
    # continuous mixing has no components, so nothing would check them
    ("definetti", {"beta": [2, 3], "expected_weights": [1.0], "expected_centers": [0.9]},
     "need finite mixing"),
])
def test_config_values_that_would_crash_or_change_exit_2(tmp_path, capsys, name, user, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 200, "window": 256, **user}))
    out = tmp_path / "out"
    assert main([name, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
