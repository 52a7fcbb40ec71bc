"""Golden outputs: seeded `run` commands, byte for byte.

Each case runs one argument list through `cli.main` and compares the sha256
of `results.jsonl`, of the traces concatenated in seed order, and of the
dumped final genomes concatenated in seed order, with the digests recorded
below.  The first four cases are the benchmark workloads (the table at the
end of perfbench/README.md); the others cover the equidistant and uniform
operators, the unused second gene of unary regression nodes, which repair
resamples, regression children evaluated from their parents' key vectors
with no reorder in between, and mutation on a 750-node list with no reorder
(acceptance criterion 7's `none` cell), and the four benchmarks the cases
above leave out: the encoder and decoder tables, and nguyen7 and koza3, the
two datasets sampled from `--dataset-seed`.  The genome digest matters
because repair rewrites inactive genes that `results.jsonl` never shows.

`ANALYZE` pins what `analyze` writes: two of those cases run into one
directory, both recording the union bitmap, then `analyze` and `analyze
--use-union-bitmap` over it; one digest covers every histogram, convergence
curve and summary.jsonl, by name, and both runs' stdout.

Speed work must leave these unchanged; a change that alters the RNG stream
on purpose updates them and says so in CHANGES.md.  To print the digests of
the current code for every case, the `analyze` case last:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from cgp_reorder.cli import main

GOLDEN = {
    "parity3-none-n200": (
        "--bench parity3 --variant none --nodes 200 --seeds 0,1,2,3 "
        "--max-iterations 2000 --threshold 2.0",
        "69a2d637fc54588f55d5c9daef67cf59e28ea5f9cf78bac128ceeeb6e0dc8bf7",
        "75a7a58405f0658feef2eebdbef58ae907f36307a4ba8f918f99adac0e6de05b",
        "86f8d43d3171a6fdc146627df692ba6dfce4593222ec6645df34c42534ce5a98",
    ),
    "multiply3-negbias-n750": (
        "--bench multiply3 --variant negbias --nodes 750 --seeds 0,1 "
        "--max-iterations 700 --threshold 2.0 --p-reorder 0.9",
        "7367f5666ad315a6f6b551339868e71edad9e09ed298065f38ed87ee8c2ddfd7",
        "956b956dc29e8eea4039261cf4ecd2e725731419097100cd4e834ca92d4fc87e",
        "95bf71244c68c15d419f8601745ad596e8fab73f7509a51f326ecd93f1111eba",
    ),
    "parity3-original-n600": (
        "--bench parity3 --variant original --nodes 600 --seeds 0,1 "
        "--max-iterations 800 --threshold 2.0",
        "8400a5f6f62767fd1c6c25bf8a2f299d1541b7610463045fdc2928cd4d71cebf",
        "dc84da504635046049192d57f3b9910b37d1659d8c616c4d355116c6ba57217c",
        "dbdd6cb25703582364700f80ce20d598559b4156c794523a466270631a22fe1f",
    ),
    "pagie1-leftskew-n350": (
        "--bench pagie1 --variant leftskew --nodes 350 --seeds 0,1,2 "
        "--max-iterations 150 --threshold 0.0 --p-reorder 0.5",
        "af47049fb46b6f8e1785740a2519c7e935ef707065128c107b5d769ee5c4d2f3",
        "e8dae4e138399278ecd7a271f16d07ca7c0f8f2671592452b24eab52356b2c0b",
        "37a132083867d42ed33e330572d6b45d3ecb1d17c486abbae837e15e32caa942",
    ),
    "parity3-equidistant-n200": (
        "--bench parity3 --variant equidistant --nodes 200 --seeds 0,1 "
        "--max-iterations 500 --threshold 2.0",
        "b9ec3dc46878534260d698f5adcefa5821a791e64baa92fe6d7baac9fab5836e",
        "ed4b99a29ae5fe3354a540e6bb113c441a813f5568d4f01c46fdfd4f537b4752",
        "d976e90408eeed7ed2a613f6487e8acf050ef0941482720eaa76651d69135c8d",
    ),
    "multiply3-uniform-n300": (
        "--bench multiply3 --variant uniform --nodes 300 --seeds 0,1 "
        "--max-iterations 300 --threshold 2.0",
        "2048a5133972faf201c957f770f65b8d659ad4dada35ad346d022fe10fe7b8a7",
        "e0dae5fe189ac97d9a3f12f0d4d1d489485af58346598e1fd26abd3eab5a5a1b",
        "329417922e472f77f9e298a80d9593687c34b148488c9e98bb1afecd891220dd",
    ),
    "keijzer6-equidistant-n50": (
        "--bench keijzer6 --variant equidistant --nodes 50 --seeds 0,1 "
        "--max-iterations 300 --threshold 0.0",
        "04a76e29cee73304071f832aaedd9bd5280ea31b28f840459e42ce4ac8998f09",
        "8d97c65148e0b4578fe4a029ac50e7d1d05e6823486c079542fd3b42fb601781",
        "e4cf7b6f21b3644200c950193853512c5289d586eb390f80b4476509bb83b6cc",
    ),
    "multiply3-none-n750": (
        "--bench multiply3 --variant none --nodes 750 --seeds 0,1 "
        "--max-iterations 500 --threshold 2.0",
        "b6812b1480f5e8e0a74c18d0a134fe9df6a955d646862555f79b4f8d3b146eb0",
        "57da97d7dd63cdfd5bc68cff9496308b8dbdf7bc8f2c445973c6b39d1f76cb71",
        "010e64c36d97fdce749e4e23ad7c860dc1fb2f4ba85eda70783e0548d99edcfa",
    ),
    "keijzer6-none-n150": (
        "--bench keijzer6 --variant none --nodes 150 --seeds 0,1 "
        "--max-iterations 300 --threshold 0.0",
        "74604674e7295e69055412c6d75a04078f76e63cd81afceb4cf0e187f5b9226a",
        "0795a0367b95675bed64b57053558d87035f3b456b20088e3f635f525f69570f",
        "078696e40f68cde375e4b8fed6924295481ed17eecd9d0196481d0eb93af0275",
    ),
    "encode16_4-negbias-n300": (
        "--bench encode16_4 --variant negbias --nodes 300 --seeds 0,1 "
        "--max-iterations 1000 --threshold 2.0 --p-reorder 0.5",
        "3010a5c3e39aaaacc43c7b159c2d33e06b12e67c768b63f7ce88297500fadf56",
        "3c53769880696f1295359b6fe21ed214b1557f598f953b9a1124a6fed102bcaa",
        "df03f776f8a30e69539f084aaa1245f853f427ccd9a485317dd28d2d966bafa4",
    ),
    "decode4_16-uniform-n300": (
        "--bench decode4_16 --variant uniform --nodes 300 --seeds 0,1 "
        "--max-iterations 800 --threshold 2.0",
        "00a7ba52b77900543346fbe1083d4602a512ec7d07f2c87aba95ac2127132ea4",
        "1af1c9204718c36746c8b384719e2cac1cbbbda0196d7e4a3bb093de0949c25a",
        "f9412ba8da3e4617e33f79a28aa6a194ce20c35707d04d7bc0a95c1f3046690f",
    ),
    "nguyen7-original-n100": (
        "--bench nguyen7 --variant original --nodes 100 --seeds 0,1 "
        "--max-iterations 600 --threshold 0.0 --dataset-seed 3",
        "3c649f34731b416cea14860de302089d312ec6e6356b387186e320238e62c765",
        "978b947d7806e4d46d9b1cb3b9856b2ca21ec0d9408716804a2caef139de29a0",
        "32929319a11b87bad58728b2d2935df0a9bf66ea3effbf70a698b074e8e99a33",
    ),
    "koza3-leftskew-n100": (
        "--bench koza3 --variant leftskew --nodes 100 --seeds 0,1 "
        "--max-iterations 600 --threshold 0.0 --p-reorder 0.9 --dataset-seed 5",
        "addeaef0612d542f77ee62c0b7dcb28b32f099996dd363591e2c8af4c728b8d2",
        "47c2bba91c203839c436128e567441278eee66ce764e29d79f0b29b676f0d474",
        "80a305a582ba9ff5b66aae48398f30e07577d5823ff98f73acb1e05d19a010e3",
    ),
}

ANALYZE = (
    ("parity3-equidistant-n200", "keijzer6-equidistant-n50"),
    "cfed88772ccbbc85540754fbed91a1f01cee853c180f36f35e8ce6524cc91eef",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _by_seed(directory: Path, prefix: str, suffix: str) -> bytes:
    paths = sorted(
        directory.glob(f"{prefix}*{suffix}"),
        key=lambda path: int(path.name.removeprefix(prefix).removesuffix(suffix)),
    )
    return b"".join(path.read_bytes() for path in paths)


def run_digests(arguments: str, out: Path) -> tuple[str, str, str]:
    """Run one case into ``out``; sha256 of results, traces and genomes."""
    argv = ["run", *arguments.split(), "--workers", "1", "--dump-genome", "--out", str(out)]
    assert main(argv) == 0
    return (
        sha256((out / "results.jsonl").read_bytes()),
        sha256(_by_seed(out / "traces", "trace_seed", ".csv")),
        sha256(_by_seed(out / "genomes", "genome_seed", ".txt")),
    )


def analyze_digest(out: Path) -> str:
    """Run the `ANALYZE` cases into ``out`` and analyse them both ways;
    sha256 of the analysis files, sorted by name, and of stdout."""
    for case in ANALYZE[0]:
        argv = ["run", *GOLDEN[case][0].split(), "--workers", "1", "--track-union-active"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out / "runs" / case)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for name, flags in (("final", []), ("union", ["--use-union-bitmap"])):
            assert main(["analyze", str(out / "runs"), "--out", str(out / name), *flags]) == 0
    files = sorted(
        path
        for pattern in ("histogram_*", "convergence_*", "summary.jsonl")
        for path in out.glob(f"*/{pattern}")
    )
    data = b"".join(f"{p.parent.name}/{p.name}\n".encode() + p.read_bytes() for p in files)
    return sha256(data + stdout.getvalue().encode())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_output_digests(case, tmp_path):
    arguments, *expected = GOLDEN[case]
    results, traces, genomes = run_digests(arguments, tmp_path / case)
    assert results == expected[0]
    assert traces == expected[1]
    assert genomes == expected[2]


def test_analyze_output_digest(tmp_path):
    assert analyze_digest(tmp_path) == ANALYZE[1]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(GOLDEN):
            # the run's own summary goes to stderr, the digests to stdout
            with contextlib.redirect_stdout(sys.stderr):
                digests = run_digests(GOLDEN[case][0], Path(scratch) / case)
            print(case, *digests, sep="\n    ", flush=True)
        print("analyze", analyze_digest(Path(scratch) / "analyze"), sep="\n    ")
