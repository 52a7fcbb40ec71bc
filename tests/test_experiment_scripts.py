"""The experiment scripts under `scripts/` each run one batch: one cell of
finalized settings per variant, at `<outdir>/<variant>`, passed to
`cli.run_batch` in one call, then one `analyze` over `<outdir>`.  The batch
and `analyze` are replaced by recorders, so nothing is evolved."""

import importlib.util
from pathlib import Path

import pytest

from cgp_reorder import cli
from cgp_reorder.errors import ConfigError
from cgp_reorder.evolution import ConvergenceTrace, RunResult

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def recorded(monkeypatch):
    """The `(cells, out)` of every `run_batch` call and the argv of every
    `main` call; each cell's batch gives one converged run per seed."""
    calls = {"run_batch": [], "main": []}

    def run_batch(cells, out):
        calls["run_batch"].append((cells, out))
        return {
            cell_dir: [
                RunResult(seed, True, 10, 40, 1.0, None, 1, "1", ConvergenceTrace())
                for seed in cell.seeds
            ]
            for cell_dir, cell in cells.items()
        }

    monkeypatch.setattr(cli, "run_batch", run_batch)
    monkeypatch.setattr(cli, "main", lambda argv: calls["main"].append(argv) or cli.EXIT_OK)
    return calls


def assert_one_batch(calls, capsys, out, expected):
    """One batch over ``expected`` (variant -> the settings fields that the
    script sets), one summary line per cell, then one analyze of ``out``."""
    [(cells, batch_out)] = calls["run_batch"]
    assert batch_out == out
    assert list(cells) == [f"{out}/{variant}" for variant in expected]
    for (cell_dir, cell), (variant, fields) in zip(cells.items(), expected.items()):
        assert cell == cli.finalize(cli.Settings(variant=variant, out=cell_dir, **fields))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == list(expected)
    assert calls["main"] == [["analyze", out, "--out", f"{out}/analysis"]]


@pytest.mark.parametrize(
    "bench_name, nodes, budget",
    [("parity3", 200, {}), ("keijzer6", 50, {"max_iterations": 20000})],
)
def test_desk_suite_runs_every_variant_in_one_batch(
    recorded, capsys, tmp_path, bench_name, nodes, budget
):
    suite = load("desk_benchmark_suite")
    out = str(tmp_path / "suite")
    assert suite.run(bench_name, out, "0..2") == cli.EXIT_OK
    expected = {
        variant: dict(
            benchmark=bench_name,
            nodes=nodes,
            seeds=[0, 1, 2],
            p_reorder=0.5 if variant in ("negbias", "leftskew") else 1.0,
            **budget,
        )
        for variant in suite.VARIANTS
    }
    assert_one_batch(recorded, capsys, out, expected)


def test_positional_bias_runs_both_variants_in_one_batch(recorded, capsys, tmp_path):
    experiment = load("positional_bias_experiment")
    out = str(tmp_path / "bias")
    assert experiment.run(out) == cli.EXIT_OK
    fields = dict(benchmark="parity3", nodes=200, seeds=list(range(75)))
    assert_one_batch(recorded, capsys, out, {"none": fields, "equidistant": fields})


def test_a_refused_batch_is_a_config_error(monkeypatch, capsys, tmp_path):
    def refusing(cells, out):
        raise ConfigError("results.jsonl was run under another config or seed list")

    monkeypatch.setattr(cli, "run_batch", refusing)
    suite = load("desk_benchmark_suite")
    assert suite.run("parity3", str(tmp_path), "0..2") == cli.EXIT_CONFIG
    assert "another config" in capsys.readouterr().err
