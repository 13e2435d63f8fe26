"""The CI gate runner, `tools/gates.py`: its table, and its verdicts on a
cheap row and on two rows made to fail."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("gates", Path(__file__).resolve().parents[1] / "tools" / "gates.py")
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

ROWS = {row.name: row for row in gates.ROWS}


def test_rows_are_named_once_and_bounded():
    """Every row has its own name and a positive time limit, and every row
    whose command is a body of the module has a peak bound."""
    assert len(ROWS) == len(gates.ROWS)
    for row in gates.ROWS:
        assert row.seconds > 0, row.name
        if callable(row.command[0]):
            assert row.mib is not None and row.mib > 0, row.name


def test_a_hostile_file_row_passes(capsys):
    """`property` on a file that is not JSON exits 2 with one stderr line,
    in a fresh child."""
    assert gates.run([ROWS["hostile file broken"]]) == []
    out = capsys.readouterr().out
    assert out.startswith("PASS  hostile file broken: [2, 1], peak ") and "1 of 1 rows passed" in out


def test_rows_past_their_bound_or_with_another_verdict_fail(capsys):
    """A row whose peak bound is below its peak, and one expecting a verdict
    its body does not give, are each reported as failed, and the run goes
    on past the first."""
    quote = ROWS["hostile text quote"]
    rows = [
        quote._replace(name="quote, bound 1 MiB", mib=1),
        quote._replace(name="quote, expecting exit 1", expect=[1, 0]),
        quote,
    ]
    assert gates.run(rows) == ["quote, bound 1 MiB", "quote, expecting exit 1"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL  quote, bound 1 MiB: [2, 1], peak ")
    assert lines[1].startswith("FAIL  quote, expecting exit 1: [2, 1], peak ")
    assert lines[-1] == "1 of 3 rows passed; failed: quote, bound 1 MiB, quote, expecting exit 1"
