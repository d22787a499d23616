"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

The repository's own suite does not collect this file (``testpaths`` is
``tests``); it checks the harness, not repelflow.
"""

import json
import warnings
from pathlib import Path

import pytest

import run

run.import_repelflow()

import repelflow as rf            # noqa: E402  (needs the path set above)
import workloads                  # noqa: E402
from tracer import Tracer        # noqa: E402

TINY_RECIPES = {name: {"n_quantiles": 32} for name in workloads.RadialRelax.RECIPES}


def tiny(name):
    return {
        "cloud_relax": lambda: workloads.CloudRelax(
            n=64, checkpoints=(0.02, 0.04), n_shells=64, n_attract=32,
            attract_checkpoints=(0.1,)),
        "radial_relax": lambda: workloads.RadialRelax(
            recipe_overrides=TINY_RECIPES, n_shells=32, t_end=0.3),
        "attraction_fixed_point": lambda: workloads.AttractionFixedPoint(
            n_grid=33, r_inf_tol=1e-7),
    }[name]()


@pytest.fixture(autouse=True)
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def test_spec_lists_the_workloads_run_knows():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_prints_every_metric_with_its_unit(name, trace, capsys):
    result = run.report(tiny(name), seed=1, seconds=0.0, trace=trace, import_s=0.5)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == json.loads(json.dumps(result))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert list(result["metrics"]) == list(units)
    for metric, unit in units.items():
        assert result["metrics"][metric]["unit"] == unit
        assert any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert json.loads(lines[0])["environment"]["nproc"] >= 1
    if name == "cloud_relax" and not trace:
        assert any(line.startswith("cloud_energy_rel_err = ") for line in lines)


def _artifacts(root):
    """Bytes of every recipe artifact; manifests without their wall time."""
    files = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file() and path.suffix in (".csv", ".json"):
            data = path.read_bytes()
            if path.name == "manifest.json":
                record = json.loads(data)
                record.pop("wall_time_s")
                data = json.dumps(record, sort_keys=True).encode()
            files[str(path.relative_to(root))] = data
    return files


def test_tracing_observes_radial_relax_without_perturbing(tmp_path):
    w = tiny("radial_relax")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    outcomes, _ = w.run(w.setup(0), plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced_outcomes, _ = w.run(w.setup(0), traced)
    finally:
        tracer.uninstall()
    assert all(o.ok for o in outcomes + traced_outcomes)
    a, b = _artifacts(plain), _artifacts(traced)
    for name in ("series.csv", "snapshots.csv", "summary.json"):
        assert any(key.endswith(name) for key in a), name
    assert a.keys() == b.keys()
    assert a == b
    assert {s[0] for s in tracer.spans} >= {"cli.run", "lagrangian.evolve",
                                            "diagnostics.collect_series"}


def test_identity_wrapping_finds_the_l1_alias_and_restores_it():
    original = rf.density.l1_distance
    assert rf.diagnostics._l1_profiles is original
    ball = rf.uniform_ball(rf.Dimension(3), 1.0, 1.0)
    tracer = Tracer()
    tracer.install()
    try:
        assert (rf.diagnostics, "_l1_profiles") in tracer.bindings()
        assert rf.diagnostics._l1_profiles is rf.density.l1_distance
        assert rf.diagnostics._l1_profiles is not original
        rf.l1_to_steady(ball, ball)
    finally:
        tracer.uninstall()
    assert rf.diagnostics._l1_profiles is original
    assert rf.density.l1_distance is original
    names = [s[0] for s in tracer.spans]
    assert names == ["diagnostics.l1_to_steady", "density.l1_distance"]
    assert tracer.spans[1][3] == 0      # the alias call is a child span
