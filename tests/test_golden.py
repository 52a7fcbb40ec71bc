"""Golden outputs: the benchmark workloads' `run` commands, byte for byte.

Each case runs one workload's argument list (the table at the end of
perfbench/README.md) through `cli.main` and compares the sha256 of
`results.jsonl`, and of the traces concatenated in seed order, with the
digests recorded there.  Speed work must leave these unchanged; a change
that alters the RNG stream on purpose updates them and says so in
CHANGES.md.
"""

import hashlib

import pytest

from cgp_reorder.cli import main

GOLDEN = {
    "parity3-none-n200": (
        "--bench parity3 --variant none --nodes 200 --seeds 0,1,2,3 "
        "--max-iterations 2000 --threshold 2.0",
        "69a2d637fc54588f55d5c9daef67cf59e28ea5f9cf78bac128ceeeb6e0dc8bf7",
        "75a7a58405f0658feef2eebdbef58ae907f36307a4ba8f918f99adac0e6de05b",
    ),
    "multiply3-negbias-n750": (
        "--bench multiply3 --variant negbias --nodes 750 --seeds 0,1 "
        "--max-iterations 700 --threshold 2.0 --p-reorder 0.9",
        "7367f5666ad315a6f6b551339868e71edad9e09ed298065f38ed87ee8c2ddfd7",
        "956b956dc29e8eea4039261cf4ecd2e725731419097100cd4e834ca92d4fc87e",
    ),
    "parity3-original-n600": (
        "--bench parity3 --variant original --nodes 600 --seeds 0,1 "
        "--max-iterations 800 --threshold 2.0",
        "8400a5f6f62767fd1c6c25bf8a2f299d1541b7610463045fdc2928cd4d71cebf",
        "dc84da504635046049192d57f3b9910b37d1659d8c616c4d355116c6ba57217c",
    ),
    "pagie1-leftskew-n350": (
        "--bench pagie1 --variant leftskew --nodes 350 --seeds 0,1,2 "
        "--max-iterations 150 --threshold 0.0 --p-reorder 0.5",
        "af47049fb46b6f8e1785740a2519c7e935ef707065128c107b5d769ee5c4d2f3",
        "e8dae4e138399278ecd7a271f16d07ca7c0f8f2671592452b24eab52356b2c0b",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_run_output_digests(workload, tmp_path, capsys):
    arguments, results_digest, traces_digest = GOLDEN[workload]
    out = tmp_path / workload
    argv = ["run", *arguments.split(), "--workers", "1", "--dump-genome", "--out", str(out)]
    assert main(argv) == 0
    paths = sorted(
        (out / "traces").glob("trace_seed*.csv"),
        key=lambda path: int(path.stem.removeprefix("trace_seed")),
    )
    traces = b"".join(path.read_bytes() for path in paths)
    assert sha256((out / "results.jsonl").read_bytes()) == results_digest
    assert sha256(traces) == traces_digest
