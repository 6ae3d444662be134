"""Tests for the command-line experiment runner (python -m repro.bench)."""

import pytest

from repro.bench import gate
from repro.bench.__main__ import experiments, main


def test_list_exits_zero(capsys):
    assert len(experiments()) == 16
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in experiments():
        assert name in out
    # each with its script's docstring headline
    assert "Table 1: performance of plain CORBA (no group service)." in out


def test_no_args_prints_listing(capsys):
    assert main([]) == 0
    assert "experiments:" in capsys.readouterr().out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit) as exit_info:
        main(["teleport"])
    assert exit_info.value.code == 2


def test_table1_runs_and_prints(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = gate.GATES.read_bytes()
    assert main(["table1_corba"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "client and server on LAN" in out
    # printing is all a run does: no gate, no report file
    assert gate.GATES.read_bytes() == before
    assert list(tmp_path.iterdir()) == []
