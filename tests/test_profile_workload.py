"""`scripts/profile_workload.py` on one benchmark workload: it profiles
every seed's ES and prints the top functions by self time."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_workload.py"
_spec = importlib.util.spec_from_file_location("profile_workload", SCRIPT)
profile_workload = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_workload)


def test_prints_the_top_functions_of_a_workload(capsys):
    assert profile_workload.main(["pagie1-leftskew-n350", "--top", "40"]) == 0
    header, columns, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("pagie1-leftskew-n350: ")
    assert columns.split() == ["function", "calls", "self", "s", "self", "cum", "s", "cum"]
    assert len(rows) == 40
    own = [float(row.split()[-4]) for row in rows]
    assert own == sorted(own, reverse=True)
    # the shares are of the ES time, which the workload's three runs make up
    run_es = [row.split() for row in rows if row.split()[0].endswith("(run_es)")]
    [(_, calls, _, _, _, share)] = run_es
    assert calls == "3"
    assert 99.0 <= float(share.rstrip("%")) <= 100.0
