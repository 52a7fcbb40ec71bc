import dataclasses
import json
import os
import re

import numpy as np
import pytest

from cgp_reorder import cli
from cgp_reorder.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    RECORD_FIELDS,
    Settings,
    build_parser,
    build_settings,
    finalize,
    main,
    parse_config_file,
    parse_seed_spec,
    write_atomic,
)
from cgp_reorder.errors import ConfigError
from cgp_reorder.evolution import RunResult
from cgp_reorder.genome import GraphParams, random_genome, to_flat_text

from conftest import validate


def run_cli(*argv):
    return main(list(argv))


class TestSeedSpec:
    def test_range_inclusive(self):
        assert parse_seed_spec("0..4") == [0, 1, 2, 3, 4]

    def test_comma_list(self):
        assert parse_seed_spec("1,3,5") == [1, 3, 5]

    def test_single_value(self):
        assert parse_seed_spec("7") == [7]

    def test_descending_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seed_spec("5..2")


class TestConfigFile:
    def test_parse_valid_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n"
            "benchmark = parity3\n"
            "variant = equidistant\n"
            "nodes = 64\n"
            "seeds = 0..3\n"
            "trace_full = true\n"
        )
        values = parse_config_file(str(cfg))
        assert values["benchmark"] == "parity3"
        assert values["nodes"] == 64
        assert values["seeds"] == [0, 1, 2, 3]
        assert values["trace_full"] is True

    def test_unknown_key_names_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("benchmark = parity3\nnoodles = 77\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:2"):
            parse_config_file(str(cfg))

    def test_bad_value_names_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("benchmark = parity3\n\nnodes = many\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:3"):
            parse_config_file(str(cfg))

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"benchmark = parity3\nnodes = 16\nseeds = 0..1\nout = {tmp_path}/a\n")
        code = run_cli("run", "--config", str(cfg), "--nodes", "24", "--out", str(tmp_path / "b"))
        assert code == EXIT_OK
        record = _read_records(tmp_path / "b" / "results.jsonl")[0]
        assert record["config"]["nodes"] == 24


# every run/grid setting: its flag, the subcommand that takes the flag, and
# a value other than its default
SETTING_FLAGS = {
    "benchmark": ("--bench", "run", "koza3"),
    "variant": ("--variant", "run", "negbias"),
    "nodes": ("--nodes", "run", "42"),
    "p_reorder": ("--p-reorder", "run", "0.25"),
    "max_iterations": ("--max-iterations", "run", "77"),
    "threshold": ("--threshold", "run", "0.5"),
    "master_seed": ("--master-seed", "run", "9"),
    "dataset_seed": ("--dataset-seed", "run", "4"),
    "workers": ("--workers", "run", "2"),
    "out": ("--out", "run", "somewhere"),
    "seeds": ("--seeds", "run", "3..5"),
    "trace_full": ("--trace-full", "run", None),
    "track_union_active": ("--track-union-active", "run", None),
    "dump_genomes": ("--dump-genome", "run", None),
    "nodes_grid": ("--nodes-grid", "grid", "10,20"),
    "p_grid": ("--p-grid", "grid", "0.5,0.9"),
    "seeds_per_cell": ("--seeds-per-cell", "grid", "3"),
}

# the options each subcommand's --help listed when the table was introduced
COMMON_HELP_FLAGS = [
    "-h", "--config", "--bench", "--variant", "--nodes", "--p-reorder",
    "--max-iterations", "--threshold", "--master-seed", "--dataset-seed",
    "--workers", "--out",
]
HELP_FLAGS = {
    "run": COMMON_HELP_FLAGS
    + ["--seeds", "--trace-full", "--track-union-active", "--dump-genome"],
    "grid": COMMON_HELP_FLAGS + ["--nodes-grid", "--p-grid", "--seeds-per-cell"],
}


class TestSettingsTable:
    def test_every_setting_has_a_flag(self):
        assert set(SETTING_FLAGS) == {f.name for f in dataclasses.fields(Settings)}

    @pytest.mark.parametrize("name", sorted(SETTING_FLAGS))
    def test_config_line_equals_flag(self, name, tmp_path):
        flag, command, raw = SETTING_FLAGS[name]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{name} = {raw or 'true'}\n")
        parser = build_parser()
        from_file = build_settings(parser.parse_args([command, "--config", str(cfg)]))
        argv = [command, flag] + ([raw] if raw is not None else [])
        from_flag = build_settings(parser.parse_args(argv))
        assert from_file == from_flag
        assert getattr(from_flag, name) != getattr(Settings(), name)

    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_lists_the_same_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        listed = re.findall(r"^  (--?[a-z-]+)", capsys.readouterr().out, re.M)
        assert listed == HELP_FLAGS[command]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--bench", "parity3", "--seeds", "5..2"],
             "--seeds: seed range '5..2' is descending"),
            (["run", "--bench", "parity3", "--nodes", "abc"], "--nodes: "),
            (["grid", "--bench", "parity3", "--nodes-grid", "20,abc"], "--nodes-grid: "),
            (["grid", "--bench", "parity3", "--variant", "negbias", "--p-grid", "0.5,x"],
             "--p-grid: "),
        ],
        ids=["seeds", "nodes", "nodes-grid", "p-grid"],
    )
    def test_bad_flag_value_is_config_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestFinalize:
    def test_benchmark_required(self):
        with pytest.raises(ConfigError):
            finalize(Settings())

    def test_defaults_per_kind(self):
        boolean = finalize(Settings(benchmark="parity3", seeds=[0]))
        assert boolean.threshold == 1.0 and boolean.max_iterations == 10_000_000
        regression = finalize(Settings(benchmark="koza3", seeds=[0]))
        assert regression.threshold == 0.01 and regression.max_iterations == 500_000

    def test_gate_probability_rejected_for_plain_variants(self):
        with pytest.raises(ConfigError):
            finalize(Settings(benchmark="parity3", variant="uniform", p_reorder=0.5, seeds=[0]))

    @pytest.mark.parametrize(
        "variant, p_reorder, p_grid, message",
        [
            ("sideways", 1.0, None, "unknown reorder kind 'sideways'; expected one of "
             "('none', 'original', 'equidistant', 'uniform', 'negbias', 'leftskew')"),
            ("negbias", 1.5, None, "p_reorder must be in [0, 1], got 1.5"),
            ("leftskew", 0.5, [0.2, -0.1], "p_reorder must be in [0, 1], got -0.1"),
            ("equidistant", 0.5, None, "p_reorder is fixed to 1.0 for kind 'equidistant'"),
            ("none", 1.0, [1.0, 0.5], "p_reorder is fixed to 1.0 for kind 'none'"),
        ],
        ids=["unknown-kind", "p-range", "p-grid-range", "fixed-p", "fixed-p-grid"],
    )
    def test_variant_and_gate_messages(self, variant, p_reorder, p_grid, message):
        settings = Settings(
            benchmark="parity3", variant=variant, p_reorder=p_reorder, p_grid=p_grid, seeds=[0]
        )
        with pytest.raises(ConfigError) as caught:
            finalize(settings)
        assert str(caught.value) == message

    def test_gated_variants_keep_their_probability(self):
        for variant in ("negbias", "leftskew"):
            settings = Settings(benchmark="parity3", variant=variant, p_reorder=0.5, seeds=[0])
            assert finalize(settings).p_reorder == 0.5

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--bench", "koza3", "--nodes", "0"], "nodes must be >= 1"),
            (["run", "--bench", "koza3", "--max-iterations", "0"],
             "max_iterations must be >= 1"),
            (["grid", "--bench", "parity3", "--nodes-grid", "10",
              "--seeds-per-cell", "0"], "seeds_per_cell must be >= 1"),
            (["grid", "--bench", "parity3", "--nodes-grid", "10,0"], "nodes_grid"),
            (["grid", "--bench", "parity3", "--variant", "negbias", "--nodes-grid", "10",
              "--p-grid", "0.5,1.5"], "p_reorder must be in [0, 1]"),
        ],
        ids=["nodes", "max-iterations", "seeds-per-cell", "nodes-grid", "p-grid"],
    )
    def test_impossible_values_rejected_before_any_output(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--bench", "parity3", "--seeds", "1,1"], "seeds lists 1 more than once"),
            (["run", "--bench", "parity3", "--seeds", "4,2,7,2"],
             "seeds lists 2 more than once"),
            (["grid", "--bench", "parity3", "--nodes-grid", "10,20,10"],
             "nodes_grid lists 10 more than once"),
            (["grid", "--bench", "parity3", "--variant", "negbias", "--nodes-grid", "10",
              "--p-grid", "0.5,0.9,0.50"], "p_grid lists 0.5 more than once"),
        ],
        ids=["seeds", "seeds-list", "nodes-grid", "p-grid"],
    )
    def test_repeated_values_rejected_before_any_output(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_repeated_seeds_in_a_config_file_rejected(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("benchmark = parity3\nseeds = 3,3\n")
        with pytest.raises(ConfigError, match="seeds lists 3 more than once"):
            finalize(build_settings(build_parser().parse_args(["run", "--config", str(config)])))

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--bench", "parity3", "--seeds=-1"], "seeds must be >= 0, got -1"),
            (["run", "--bench", "parity3", "--seeds=-2..3"], "seeds must be >= 0, got -2"),
            (["run", "--bench", "parity3", "--master-seed", "-1"],
             "master_seed must be >= 0, got -1"),
            (["run", "--bench", "koza3", "--dataset-seed", "-1"],
             "dataset_seed must be >= 0, got -1"),
            (["run", "--bench", "parity3", "--workers", "-2"], "workers must be >= 0, got -2"),
            (["grid", "--bench", "parity3", "--nodes-grid", "10", "--master-seed", "-1"],
             "master_seed must be >= 0, got -1"),
            (["grid", "--bench", "koza3", "--nodes-grid", "10", "--dataset-seed", "-1"],
             "dataset_seed must be >= 0, got -1"),
            (["grid", "--bench", "parity3", "--nodes-grid", "10", "--workers", "-2"],
             "workers must be >= 0, got -2"),
        ],
        ids=[
            "seeds", "seed-range", "master-seed", "dataset-seed", "workers",
            "grid-master-seed", "grid-dataset-seed", "grid-workers",
        ],
    )
    def test_negative_seeds_and_workers_are_config_errors(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not out.exists()


def _tree(out):
    """Every file under ``out`` but run_meta.json, by relative path, with its bytes."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in out.rglob("*")
        if path.is_file() and path.name != "run_meta.json"
    }


def _read_records(path):
    return [json.loads(line) for line in open(path) if line.strip()]


class TestRunCommand:
    def test_run_writes_results_traces_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code = run_cli(
            "run", "--bench", "parity3", "--variant", "none", "--nodes", "30",
            "--seeds", "0..3", "--workers", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        records = _read_records(out / "results.jsonl")
        assert [r["seed"] for r in records] == [0, 1, 2, 3]
        for r in records:
            assert r["evaluations"] == 4 * r["iterations"]
            assert len(r["active_bitmap"]) == 30
            assert r["config"]["benchmark"] == "parity3"
            assert "protected_pdiv" in r["config"]
        for seed in range(4):
            assert (out / "traces" / f"trace_seed{seed}.csv").exists()
        assert (out / "run_meta.json").exists()
        summary_line = capsys.readouterr().out
        assert "parity3" in summary_line and "SR=" in summary_line

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "run", "--bench", "parity3", "--variant", "equidistant", "--nodes", "25",
            "--seeds", "0..2", "--workers", "1",
        ]
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "results.jsonl").read_bytes() == (
            tmp_path / "b" / "results.jsonl"
        ).read_bytes()
        for seed in range(3):
            trace = f"traces/trace_seed{seed}.csv"
            assert (tmp_path / "a" / trace).read_bytes() == (
                tmp_path / "b" / trace
            ).read_bytes()

    @pytest.mark.parametrize(
        "args, cells",
        [
            (["run", "--bench", "parity3", "--seeds", "0..3"], [""]),
            (["run", "--bench", "nguyen7", "--max-iterations", "200", "--seeds", "0..3"], [""]),
            (
                ["grid", "--bench", "nguyen7", "--max-iterations", "200",
                 "--nodes-grid", "15,25", "--seeds-per-cell", "4"],
                ["cells/N15_p1/", "cells/N25_p1/"],
            ),
        ],
        ids=["parity3", "nguyen7", "nguyen7-grid"],
    )
    def test_parallel_matches_serial(self, tmp_path, args, cells):
        # workers receive the benchmark the batch built, pickled; a grid's
        # cells share one pool
        trees = {}
        for workers in ("1", "2"):
            out = tmp_path / workers
            code = run_cli(*args, "--nodes", "25", "--workers", workers, "--out", str(out))
            assert code == EXIT_OK
            trees[workers] = _tree(out)
        assert trees["1"] == trees["2"]
        names = set(trees["1"])
        for cell in cells:
            traces = {f"{cell}traces/trace_seed{s}.csv" for s in range(4)}
            assert {f"{cell}results.jsonl", *traces} <= names
        if "nguyen7" in args:
            assert "datasets/nguyen7_s1_train.csv" in names

    def test_edited_dataset_record_is_not_read(self, tmp_path):
        args = [
            "run", "--bench", "nguyen7", "--nodes", "20", "--seeds", "0..1",
            "--max-iterations", "100", "--workers", "1", "--out", str(tmp_path),
        ]
        assert run_cli(*args) == EXIT_OK
        results = (tmp_path / "results.jsonl").read_bytes()
        record = tmp_path / "datasets" / "nguyen7_s1_train.csv"
        generated = record.read_text()
        lines = generated.splitlines(keepends=True)
        lines[1] = "1.0,0.5\n"
        record.write_text("".join(lines))
        assert run_cli(*args) == EXIT_OK
        assert (tmp_path / "results.jsonl").read_bytes() == results
        assert record.read_text() == generated

    def test_dump_genome_flag_writes_final_genomes(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "run", "--bench", "parity3", "--nodes", "20", "--seeds", "0..1",
            "--workers", "1", "--out", str(out), "--dump-genome",
        )
        settings = finalize(Settings(benchmark="parity3", nodes=20, seeds=[0, 1], workers=1))
        bench = cli._build_bench(settings, None)
        for seed in settings.seeds:
            genome = cli.run_es(settings, bench, seed).final_genome
            text = (out / "genomes" / f"genome_seed{seed}.txt").read_text()
            assert text == to_flat_text(genome)
            assert validate(genome) == []

    @pytest.mark.parametrize(
        "bench, union", [("parity3", False), ("keijzer6", True)], ids=["parity3", "keijzer6-union"]
    )
    def test_records_read_back_as_the_run_results(self, tmp_path, bench, union):
        # what a resumed batch and analyze rebuild from results.jsonl
        args = ["--bench", bench, "--nodes", "20", "--seeds", "0..1", "--max-iterations", "40"]
        code = run_cli(
            "run", *args, "--workers", "1", "--out", str(tmp_path),
            *(["--track-union-active"] if union else []),
        )
        assert code == EXIT_OK
        settings = finalize(
            Settings(
                benchmark=bench, nodes=20, seeds=[0, 1], max_iterations=40, workers=1,
                track_union_active=union,
            )
        )
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        bench = cli._build_bench(settings, None)
        runs = [cli.run_es(settings, bench, seed) for seed in settings.seeds]
        for line, result in zip(lines, runs, strict=True):
            read = json.loads(line)
            assert read.pop("config") == cli.effective_config(settings)
            assert read == {name: getattr(result, name) for name in RECORD_FIELDS}
            assert (read["union_active_bitmap"] is not None) == union

    def test_trace_reads_back_exactly(self, tmp_path):
        samples = [(0, -0.0), (3, float("inf")), (7, 5e-324), (12, 0.1 + 0.2)]
        result = RunResult(
            seed=4, converged=False, iterations=12, evaluations=48,
            final_train_fitness=0.1 + 0.2, final_test_fitness=None, active_count=0,
            active_bitmap="0" * 10, trace=list(samples),
        )
        settings = finalize(Settings(benchmark="parity3", nodes=10, seeds=[4]))
        cli._write_run_outputs(str(tmp_path), settings, result, {})
        read = cli.read_trace_csv(str(tmp_path / "traces" / "trace_seed4.csv"))
        assert [(i, f.hex()) for i, f in read] == [(i, f.hex()) for i, f in samples]
        assert all(type(i) is int for i, _ in read)

    def test_run_builds_its_benchmark_once(self, tmp_path, monkeypatch):
        calls = []
        build = cli.build_benchmark

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "build_benchmark", counted)
        code = run_cli(
            "run", "--bench", "nguyen7", "--nodes", "20", "--seeds", "0..1",
            "--max-iterations", "20", "--workers", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_OK and len(calls) == 1

    def test_regression_run_records_dataset(self, tmp_path):
        out = tmp_path / "reg"
        code = run_cli(
            "run", "--bench", "keijzer6", "--nodes", "20", "--seeds", "0..1",
            "--workers", "1", "--max-iterations", "50", "--out", str(out),
        )
        assert code == EXIT_OK
        assert (out / "datasets" / "keijzer6_s1_train.csv").exists()
        assert (out / "datasets" / "keijzer6_s1_test.csv").exists()

    def test_meta_records_workers_used(self, tmp_path):
        # 0 asks for one worker per CPU, but a single seed runs on one
        out = tmp_path / "auto"
        code = run_cli(
            "run", "--bench", "parity3", "--nodes", "12", "--seeds", "0",
            "--workers", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["workers"] == 1

    def test_meta_duration_is_finished_minus_started(self, tmp_path):
        out = tmp_path / "meta"
        code = run_cli(
            "run", "--bench", "parity3", "--nodes", "12", "--seeds", "0",
            "--workers", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["duration_s"] == meta["finished_unix"] - meta["started_unix"]

    def test_outputs_leave_no_temporary_file(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--bench", "keijzer6", "--variant", "leftskew", "--p-reorder", "0.5",
            "--nodes", "20", "--seeds", "0..1", "--max-iterations", "30",
            "--workers", "1", "--dump-genome", "--out", str(out),
        )
        assert code == EXIT_OK
        code = run_cli("analyze", str(out), "--out", str(out / "analysis"))
        assert code == EXIT_OK
        code = run_cli(
            "grid", "--bench", "keijzer6", "--nodes-grid", "20", "--seeds-per-cell", "1",
            "--max-iterations", "30", "--workers", "1", "--out", str(out / "grid"),
        )
        assert code == EXIT_OK
        written = sorted(
            os.path.relpath(os.path.join(root, name), out)
            for root, _, names in os.walk(out)
            for name in names
        )
        assert not [name for name in written if name.endswith(".tmp")]
        for name in ("results.jsonl", "batch.json", "run_meta.json", "traces/trace_seed1.csv",
                     "genomes/genome_seed1.txt", "datasets/keijzer6_s1_train.csv",
                     "analysis/summary.jsonl",
                     "analysis/histogram_keijzer6_leftskew_N20_p0_5.csv",
                     "analysis/convergence_keijzer6_leftskew_N20_p0_5.csv",
                     "grid/grid_summary.jsonl", "grid/cells/N20_p1/batch.json"):
            assert name in written

    def test_failed_write_keeps_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        target = tmp_path / "results.jsonl"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_atomic(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["results.jsonl"]

    def test_unknown_benchmark_exits_config_error(self, tmp_path, capsys):
        code = run_cli("run", "--bench", "sudoku", "--out", str(tmp_path / "x"))
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_variant_exits_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run_cli("run", "--bench", "parity3", "--variant", "bogus", "--out", str(out))
        assert code == EXIT_CONFIG
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()


class TestGridCommand:
    def test_grid_cells_and_summary(self, tmp_path, capsys):
        out = tmp_path / "grid"
        code = run_cli(
            "grid", "--bench", "parity3", "--variant", "negbias",
            "--nodes-grid", "16,24", "--p-grid", "0.5,1.0",
            "--seeds-per-cell", "2", "--workers", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        cells = sorted(os.listdir(out / "cells"))
        assert cells == ["N16_p0_5", "N16_p1", "N24_p0_5", "N24_p1"]
        rows = _read_records(out / "grid_summary.jsonl")
        assert len(rows) == 4
        assert sum(r["runs"] for r in rows) == 8
        means = [r["mean_iterations"] for r in rows]
        assert means == sorted(means)  # boolean grids sort by mean I2S

    def test_grid_resume_skips_complete_cells(self, tmp_path, monkeypatch):
        out = tmp_path / "grid"
        args = [
            "grid", "--bench", "parity3", "--nodes-grid", "16",
            "--seeds-per-cell", "2", "--workers", "1", "--out", str(out),
        ]
        assert run_cli(*args) == EXIT_OK
        results = out / "cells" / "N16_p1" / "results.jsonl"
        first_mtime = results.stat().st_mtime_ns
        before = results.read_bytes()
        seeds = []
        monkeypatch.setattr(cli, "run_es", lambda *args: seeds.append(args))
        assert run_cli(*args) == EXIT_OK
        assert seeds == []
        assert results.stat().st_mtime_ns == first_mtime
        assert results.read_bytes() == before

    def test_rerun_under_another_config_is_refused_before_any_seed(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "grid"

        def grid(nodes, *extra):
            return run_cli(
                "grid", "--bench", "parity3", "--nodes-grid", nodes, "--workers", "1",
                "--out", str(out), *extra,
            )

        assert grid("10", "--seeds-per-cell", "2", "--max-iterations", "5") == EXIT_OK
        results = out / "cells" / "N10_p1" / "results.jsonl"
        before = results.read_bytes()
        batches = []
        monkeypatch.setattr(cli, "run_es", lambda *args: batches.append(args))
        capsys.readouterr()
        # the new cell N8 sorts first, so a late check would have run it
        code = grid(
            "8,10", "--seeds-per-cell", "2", "--max-iterations", "50", "--master-seed", "3"
        )
        assert code == EXIT_CONFIG
        assert str(results) in capsys.readouterr().err
        assert grid("10", "--seeds-per-cell", "3", "--max-iterations", "5") == EXIT_CONFIG
        assert batches == []
        assert not (out / "cells" / "N8_p1").exists()
        # the same config still resumes, without running a seed
        assert grid("10", "--seeds-per-cell", "2", "--max-iterations", "5") == EXIT_OK
        assert batches == []
        assert results.read_bytes() == before

    def test_p_values_that_print_alike_get_their_own_cells(self, tmp_path, capsys):
        # both values read 0.123456 under {p:g}
        out = tmp_path / "grid"
        code = run_cli(
            "grid", "--bench", "parity3", "--variant", "negbias", "--nodes-grid", "10",
            "--p-grid", "0.1234561,0.1234564", "--seeds-per-cell", "1",
            "--max-iterations", "5", "--workers", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        assert sorted(os.listdir(out / "cells")) == ["N10_p0_1234561", "N10_p0_1234564"]
        rows = _read_records(out / "grid_summary.jsonl")
        assert sorted(r["p_reorder"] for r in rows) == [0.1234561, 0.1234564]
        assert run_cli("analyze", str(out), "--out", str(tmp_path / "analysis")) == EXIT_OK
        histograms = sorted(
            name for name in os.listdir(tmp_path / "analysis") if name.startswith("histogram_")
        )
        assert histograms == [
            "histogram_parity3_negbias_N10_p0_1234561.csv",
            "histogram_parity3_negbias_N10_p0_1234564.csv",
        ]

    def test_p_grid_on_plain_variant_rejected(self, tmp_path, capsys):
        code = run_cli(
            "grid", "--bench", "parity3", "--variant", "equidistant",
            "--nodes-grid", "16", "--p-grid", "0.5,1.0", "--out", str(tmp_path / "g"),
        )
        assert code == EXIT_CONFIG
        assert "fixed to 1.0" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


class Stopped(Exception):
    """Raised in place of a run, to stop a batch part-way as a kill would."""


class TestBatchResume:
    RUN = [
        "run", "--bench", "keijzer6", "--variant", "leftskew", "--p-reorder", "0.5",
        "--nodes", "15", "--seeds", "0..5", "--max-iterations", "60", "--dump-genome",
    ]
    GRID = [
        "grid", "--bench", "parity3", "--variant", "negbias", "--nodes-grid", "10,15",
        "--p-grid", "0.5,1", "--seeds-per-cell", "3", "--max-iterations", "200",
    ]

    @pytest.mark.parametrize(
        "args, seeds, stop_after", [(RUN, 6, 2), (GRID, 12, 5)], ids=["run", "grid"]
    )
    def test_stopped_batch_reruns_only_the_missing_seeds(
        self, tmp_path, monkeypatch, args, seeds, stop_after
    ):
        assert run_cli(*args, "--workers", "1", "--out", str(tmp_path / "whole")) == EXIT_OK
        out = tmp_path / "stopped"
        run_es = cli.run_es
        ran = []

        def counted(settings, bench, seed):
            ran.append((settings.nodes, settings.p_reorder, seed))
            return run_es(settings, bench, seed)

        def stopping(settings, bench, seed):
            if len(ran) == stop_after:
                raise Stopped
            return counted(settings, bench, seed)

        monkeypatch.setattr(cli, "run_es", stopping)
        with pytest.raises(Stopped):
            run_cli(*args, "--workers", "1", "--out", str(out))
        # every seed that finished is on disk
        kept = [r for path in out.rglob("results.jsonl") for r in _read_records(path)]
        assert len(kept) == stop_after
        finished = set(ran)
        ran.clear()
        monkeypatch.setattr(cli, "run_es", counted)
        assert run_cli(*args, "--workers", "1", "--out", str(out)) == EXIT_OK
        assert len(ran) == seeds - stop_after
        assert not finished & set(ran)
        assert _tree(out) == _tree(tmp_path / "whole")

    @pytest.mark.parametrize(
        "change",
        [
            ["--master-seed", "1"],
            ["--seeds", "0..2"],
            ["--dump-genome"],
            ["--trace-full"],
            ["--track-union-active"],
        ],
        ids=["master-seed", "seeds", "dump-genome", "trace-full", "track-union-active"],
    )
    def test_rerun_under_another_setting_is_refused_before_any_write(
        self, tmp_path, capsys, monkeypatch, change
    ):
        args = [
            "run", "--bench", "keijzer6", "--nodes", "12", "--seeds", "0..1",
            "--max-iterations", "30", "--workers", "1", "--out", str(tmp_path),
        ]
        assert run_cli(*args) == EXIT_OK

        def files():
            return {
                path: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in tmp_path.rglob("*")
                if path.is_file()
            }

        before = files()
        seeds = []
        monkeypatch.setattr(cli, "run_es", lambda *args: seeds.append(args))
        capsys.readouterr()
        assert run_cli(*args, *change) == EXIT_CONFIG
        assert str(tmp_path / "results.jsonl") in capsys.readouterr().err
        assert seeds == []
        assert files() == before

    def test_a_recorded_bitmap_unlike_its_nodes_is_refused_before_any_seed(
        self, tmp_path, capsys, monkeypatch
    ):
        args = [
            "run", "--bench", "parity3", "--nodes", "16", "--seeds", "0..1",
            "--max-iterations", "30", "--workers", "1", "--out", str(tmp_path),
        ]
        assert run_cli(*args) == EXIT_OK
        # seed 1 is lost, and seed 0's bitmap is a position too wide
        results = tmp_path / "results.jsonl"
        record = _read_records(results)[0]
        wider = record | {"active_bitmap": record["active_bitmap"] + "0"}
        results.write_text(json.dumps(wider) + "\n")
        before = results.read_bytes()
        run_es, seeds = cli.run_es, []
        monkeypatch.setattr(cli, "run_es", lambda *args: seeds.append(args[2]) or run_es(*args))
        capsys.readouterr()
        assert run_cli(*args) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"aggregation error: {results}: seed 0's active_bitmap is not 16 positions "
            "of 0 or 1 (it has 17)\n"
        )
        assert seeds == []
        assert results.read_bytes() == before


class TestAnalyzeCommand:
    def test_analyze_produces_histogram_convergence_summary(self, tmp_path, capsys):
        out = tmp_path / "runs"
        run_cli(
            "run", "--bench", "parity3", "--nodes", "20", "--seeds", "0..2",
            "--workers", "1", "--out", str(out / "std"),
        )
        code = run_cli("analyze", str(out), "--out", str(tmp_path / "analysis"))
        assert code == EXIT_OK
        files = os.listdir(tmp_path / "analysis")
        assert "histogram_parity3_none_N20_p1.csv" in files
        assert "convergence_parity3_none_N20_p1.csv" in files
        assert "summary.jsonl" in files
        rows = _read_records(tmp_path / "analysis" / "summary.jsonl")
        assert rows[0]["runs"] == 3
        histogram = (tmp_path / "analysis" / "histogram_parity3_none_N20_p1.csv").read_text()
        assert "# runs=3\nposition,normalized_position,probability\n" in histogram

    def test_single_run_histogram_equals_bitmap(self, tmp_path):
        out = tmp_path / "runs"
        run_cli(
            "run", "--bench", "parity3", "--nodes", "12", "--seeds", "5",
            "--workers", "1", "--out", str(out / "one"),
        )
        record = _read_records(out / "one" / "results.jsonl")[0]
        run_cli("analyze", str(out), "--out", str(tmp_path / "analysis"))
        hist_lines = [
            line
            for line in (tmp_path / "analysis" / "histogram_parity3_none_N12_p1.csv")
            .read_text()
            .splitlines()
            if line and not line.startswith(("#", "position"))
        ]
        probabilities = [float(line.split(",")[2]) for line in hist_lines]
        assert probabilities == [float(bit) for bit in record["active_bitmap"]]

    def test_union_bitmap_histogram(self, tmp_path):
        out = tmp_path / "runs"
        run_cli(
            "run", "--bench", "parity3", "--nodes", "16", "--seeds", "0..2",
            "--workers", "1", "--out", str(out / "u"), "--track-union-active",
        )
        records = _read_records(out / "u" / "results.jsonl")
        for r in records:
            union = r["union_active_bitmap"]
            assert union is not None
            # across-training activity covers at least the final solution
            assert all(u == "1" for u, f in zip(union, r["active_bitmap"]) if f == "1")
        code = run_cli(
            "analyze", str(out), "--out", str(tmp_path / "ua"), "--use-union-bitmap"
        )
        assert code == EXIT_OK

    def test_union_bitmap_requires_tracked_runs(self, tmp_path, capsys):
        out = tmp_path / "runs"
        run_cli(
            "run", "--bench", "parity3", "--nodes", "16", "--seeds", "0",
            "--workers", "1", "--out", str(out / "plain"),
        )
        code = run_cli(
            "analyze", str(out), "--out", str(tmp_path / "x"), "--use-union-bitmap"
        )
        assert code == EXIT_CONFIG

    def test_missing_union_bitmap_fails_before_any_file_is_written(self, tmp_path, capsys):
        # the tracked group N12 sorts before the untracked N16
        out = tmp_path / "runs"
        for nodes, sub, extra in ((16, "plain", []), (12, "u", ["--track-union-active"])):
            run_cli(
                "run", "--bench", "parity3", "--nodes", str(nodes), "--seeds", "0",
                "--workers", "1", "--out", str(out / sub), *extra,
            )
        code = run_cli(
            "analyze", str(out), "--out", str(tmp_path / "an"), "--use-union-bitmap"
        )
        assert code == EXIT_CONFIG
        assert "plain" in capsys.readouterr().err
        assert list(tmp_path.glob("an/*")) == []

    def test_empty_directory_errors(self, tmp_path, capsys):
        code = run_cli("analyze", str(tmp_path / "nothing"))
        assert code == EXIT_CONFIG

    def test_node_counts_summarised_apart(self, tmp_path, capsys):
        out = tmp_path / "runs"
        for nodes, sub in ((16, "a"), (24, "b")):
            run_cli(
                "run", "--bench", "parity3", "--nodes", str(nodes), "--seeds", "0",
                "--workers", "1", "--out", str(out / sub),
            )
        code = run_cli("analyze", str(out), "--out", str(tmp_path / "x"))
        assert code == EXIT_OK
        rows = _read_records(tmp_path / "x" / "summary.jsonl")
        assert sorted(r["nodes"] for r in rows) == [16, 24]
        assert all(r["runs"] == 1 for r in rows)

    @staticmethod
    def _runs(out, *batches):
        for sub, seeds, master_seed in batches:
            assert run_cli(
                "run", "--bench", "parity3", "--nodes", "20", "--seeds", seeds,
                "--max-iterations", "30", "--master-seed", master_seed,
                "--workers", "1", "--out", str(out / sub),
            ) == EXIT_OK

    def test_records_of_different_configs_are_not_merged(self, tmp_path, capsys):
        out = tmp_path / "runs"
        self._runs(out, ("a", "0..2", "0"), ("b", "0..2", "1"))
        code = run_cli("analyze", str(out), "--out", str(tmp_path / "analysis"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "different configs" in err
        assert str(out / "a" / "results.jsonl") in err
        assert str(out / "b" / "results.jsonl") in err
        assert not (tmp_path / "analysis").exists()

    def test_a_seed_run_twice_is_not_merged(self, tmp_path, capsys):
        out = tmp_path / "runs"
        self._runs(out, ("a", "0..1", "0"), ("b", "1..2", "0"))
        code = run_cli("analyze", str(out), "--out", str(tmp_path / "analysis"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed 1" in err
        assert str(out / "a" / "results.jsonl") in err
        assert str(out / "b" / "results.jsonl") in err
        assert not (tmp_path / "analysis").exists()

    def test_same_config_and_distinct_seeds_merge(self, tmp_path, capsys):
        out = tmp_path / "runs"
        self._runs(out, ("a", "0..1", "0"), ("b", "2", "0"))
        code = run_cli("analyze", str(out), "--out", str(tmp_path / "analysis"))
        assert code == EXIT_OK
        rows = _read_records(tmp_path / "analysis" / "summary.jsonl")
        assert [r["runs"] for r in rows] == [3]

    @staticmethod
    def _later_group(tmp_path):
        """Seed 0 of parity3 at N=12 and at N=16, under ``tmp_path/runs``;
        the N=16 group sorts, and would be written, after the N=12 one."""
        for nodes in (12, 16):
            assert run_cli(
                "run", "--bench", "parity3", "--nodes", str(nodes), "--seeds", "0",
                "--max-iterations", "30", "--workers", "1",
                "--out", str(tmp_path / "runs" / f"n{nodes}"),
            ) == EXIT_OK
        return tmp_path / "runs" / "n16"

    @staticmethod
    def _fails_at(tmp_path, capsys, where) -> str:
        """Analyze's error message, after checking that it names ``where``
        and that no output file was written."""
        code = run_cli("analyze", str(tmp_path / "runs"), "--out", str(tmp_path / "analysis"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"aggregation error: {where}: ")
        assert not (tmp_path / "analysis").exists()
        return err

    def test_a_record_that_is_not_json_names_its_line(self, tmp_path, capsys):
        results = self._later_group(tmp_path) / "results.jsonl"
        results.write_text(results.read_text() + '{"seed": 0\n')
        self._fails_at(tmp_path, capsys, f"{results}:2")

    @pytest.mark.parametrize("key", ["active_count", "union_active_bitmap", "config"])
    def test_a_record_that_lacks_a_key_names_its_line(self, tmp_path, capsys, key):
        results = self._later_group(tmp_path) / "results.jsonl"
        [record] = _read_records(results)
        del record[key]
        results.write_text(json.dumps(record) + "\n")
        assert key in self._fails_at(tmp_path, capsys, f"{results}:1")

    @pytest.mark.parametrize(
        "key, value",
        # a string count used to be summarised as the number it spells
        [("iterations", "30"), ("seed", True), ("evaluations", 120.0), ("active_count", None),
         ("converged", 1), ("active_bitmap", 101), ("union_active_bitmap", 0),
         ("final_train_fitness", "0.5"), ("final_test_fitness", 1), ("config", 5)],
    )
    def test_a_field_of_another_type_names_its_line(self, tmp_path, capsys, key, value):
        results = self._later_group(tmp_path) / "results.jsonl"
        [record] = _read_records(results)
        results.write_text(json.dumps(record | {key: value}) + "\n")
        assert key in self._fails_at(tmp_path, capsys, f"{results}:1")

    @pytest.mark.parametrize(
        "key, value",
        # None deletes the key; a string count, or an int probability, is no
        # value that names a group
        [("benchmark", None), ("variant", None), ("nodes", None), ("p_reorder", None),
         ("nodes", "16"), ("p_reorder", 1)],
    )
    def test_a_config_key_missing_or_of_another_type_names_its_line(
        self, tmp_path, capsys, key, value
    ):
        results = self._later_group(tmp_path) / "results.jsonl"
        [record] = _read_records(results)
        config = {k: v for k, v in record["config"].items() if k != key}
        if value is not None:
            config[key] = value
        results.write_text(json.dumps(record | {"config": config}) + "\n")
        assert f"config.{key}" in self._fails_at(tmp_path, capsys, f"{results}:1")

    @pytest.mark.parametrize("union", [False, True], ids=["final", "union"])
    @pytest.mark.parametrize("edit", ["wider", "not_binary"])
    def test_a_bitmap_unlike_its_nodes_fails_before_any_file_is_written(
        self, tmp_path, capsys, union, edit
    ):
        out = tmp_path / "runs" / "n16"
        assert run_cli(
            "run", "--bench", "parity3", "--nodes", "16", "--seeds", "0",
            "--max-iterations", "30", "--workers", "1", "--track-union-active",
            "--out", str(out),
        ) == EXIT_OK
        results = out / "results.jsonl"
        [record] = _read_records(results)
        key = "union_active_bitmap" if union else "active_bitmap"
        bitmap = record[key] + "0" if edit == "wider" else "2" + record[key][1:]
        results.write_text(json.dumps(record | {key: bitmap}) + "\n")
        code = run_cli(
            "analyze", str(tmp_path / "runs"), "--out", str(tmp_path / "analysis"),
            *(["--use-union-bitmap"] if union else []),
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        width = 17 if edit == "wider" else 16
        assert err == (
            f"aggregation error: {results}: seed 0's {key} is not 16 positions "
            f"of 0 or 1 (it has {width})\n"
        )
        assert not (tmp_path / "analysis").exists()

    def test_a_group_of_mixed_widths_fails_before_any_file_is_written(self, tmp_path, capsys):
        # the valid N=12 group sorts, and would be written, before this one
        results = self._later_group(tmp_path) / "results.jsonl"
        [record] = _read_records(results)
        narrow = record | {"seed": 1, "active_bitmap": record["active_bitmap"][:-1]}
        results.write_text(json.dumps(record) + "\n" + json.dumps(narrow) + "\n")
        err = self._fails_at(tmp_path, capsys, results)
        assert "seed 1's active_bitmap is not 16 positions of 0 or 1 (it has 15)" in err

    def test_a_bad_trace_row_names_its_line(self, tmp_path, capsys):
        trace = self._later_group(tmp_path) / "traces" / "trace_seed0.csv"
        text = trace.read_text()
        trace.write_text(text + "1,abc\n")
        self._fails_at(tmp_path, capsys, f"{trace}:{len(text.splitlines()) + 1}")

    def test_analyze_multi_node_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid"
        code = run_cli(
            "grid", "--bench", "parity3", "--nodes-grid", "20,30",
            "--seeds-per-cell", "2", "--workers", "1", "--out", str(grid),
        )
        assert code == EXIT_OK
        code = run_cli("analyze", str(grid), "--out", str(tmp_path / "analysis"))
        assert code == EXIT_OK
        files = os.listdir(tmp_path / "analysis")
        for nodes in (20, 30):
            assert f"histogram_parity3_none_N{nodes}_p1.csv" in files
            assert f"convergence_parity3_none_N{nodes}_p1.csv" in files
        rows = _read_records(tmp_path / "analysis" / "summary.jsonl")
        assert sorted((r["nodes"], r["runs"]) for r in rows) == [(20, 2), (30, 2)]


class TestDumpGenomeCommand:
    @pytest.mark.parametrize(
        "bench, shape",
        # multiply3 multiplies two 3-bit numbers into a 6-bit product;
        # pagie1 maps (x, y) to one value
        [("multiply3", (6, 6, "boolean")), ("pagie1", (2, 1, "regression"))],
        ids=["multiply3", "pagie1"],
    )
    def test_stdout_is_the_seeded_genome(self, bench, shape, capsys):
        code = run_cli("dump-genome", "--bench", bench, "--nodes", "15", "--seed", "3")
        assert code == EXIT_OK
        inputs, outputs, function_set = shape
        params = GraphParams(inputs, outputs, 15, function_set)
        genome = random_genome(params, np.random.default_rng(3))
        assert capsys.readouterr().out == to_flat_text(genome)
        assert validate(genome) == []

    def test_bench_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("dump-genome", "--nodes", "7", "--seed", "0")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--bench" in captured.err

    def test_deterministic_output(self, capsys):
        run_cli("dump-genome", "--bench", "parity3", "--seed", "9")
        first = capsys.readouterr().out
        run_cli("dump-genome", "--bench", "parity3", "--seed", "9")
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["seed"],
    )
    def test_negative_seed_is_config_error(self, argv, message, capsys):
        assert run_cli("dump-genome", "--bench", "pagie1", *argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""


class TestParser:
    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
