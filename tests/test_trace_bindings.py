"""The benchmark's layer trace wraps ergodec functions at named bindings
(``bench/tracing.py``); these tests keep those names in place so that
``bench/run.py --trace 1`` keeps working when code moves."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import ergodec.cli
import ergodec.decomposition
from ergodec.averaging import mc_level_values
from ergodec.cocycles import constant_one
from ergodec.decomposition import DecomposeConfig, decompose
from ergodec.measures import ProductBernoulli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_in_its_owner():
    for _, module, path, _ in _tracing().BINDINGS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module}.{path}"


def test_level_layer_bindings_stay_bound():
    for owner, attr in [
        (ergodec.decomposition, "monomial_level_average"),
        (ergodec.decomposition, "average_exact"),
        (ergodec.decomposition, "mc_level_values"),
        (ergodec.cli, "orbital_dichotomy"),
    ]:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_mc_level_values_keeps_the_argument_positions_the_trace_reads():
    params = list(inspect.signature(mc_level_values).parameters)
    assert params[1] == "level" and params[4] == "samples"


def test_run_validate_calls_the_suite_bound_at_call_time(monkeypatch):
    # The trace wraps ergodec.validation.run_validation_suite after import;
    # cli.run_validate must call whatever that binding holds when it runs.
    import ergodec.validation

    calls = []

    def fake(cfg, seed):
        calls.append((cfg, seed))
        return []

    monkeypatch.setattr(ergodec.validation, "run_validation_suite", fake)
    ergodec.cli.run_validate({"key": 1}, 5)
    assert calls == [({"key": 1}, 5)]


def test_decompose_calls_the_residual_bound_at_call_time(monkeypatch):
    # The trace wraps ergodec.decomposition.barycenter_residual; decompose
    # must reach it through the module global, and store both its numbers.
    calls = []

    def fake(nu, dm, depth):
        calls.append(depth)
        return 0.5, 0.25

    monkeypatch.setattr(ergodec.decomposition, "barycenter_residual", fake)
    nu = ProductBernoulli.homogeneous(0.5, 64)
    dm = decompose(nu, constant_one(), DecomposeConfig(samples=20, residual_depth=2))
    assert calls == [2]
    assert (dm.barycenter_residual, dm.barycenter_residual_sd) == (0.5, 0.25)


def test_run_experiment_calls_the_csv_writer_bound_at_call_time(monkeypatch, tmp_path):
    # The trace wraps ergodec.cli.write_csv after import; run_experiment must
    # write every CSV series through whatever that binding holds.
    calls = []
    monkeypatch.setattr(ergodec.cli, "write_csv", lambda path, header, rows: calls.append(path))
    cfg = ergodec.cli.load_config("definetti", None, {"samples": 50, "window": 64})
    ergodec.cli.run_experiment("definetti", cfg, 3, 1, tmp_path)
    assert sorted(p.name for p in calls) == ["components.csv", "samples.csv"]
