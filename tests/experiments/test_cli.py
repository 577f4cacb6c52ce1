"""Unit tests for the experiment CLI (python -m repro.experiments)."""

import pytest

from repro.experiments.__main__ import EXPERIMENTS, MODE_SWEEPING, main


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment_rejected(capsys):
    assert main(["nope"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Bert" in out and "[table1:" in out


def test_fig6_runs_and_renders(capsys):
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "vanilla_ms" in out and "hotmem_ms" in out


def test_sanitize_flag_reports_sweeps(capsys):
    from repro.analysis import sanitizer as san

    prior = san.uninstall()  # suspend any ambient --sanitize install
    try:
        assert main(["fig2", "--sanitize", "--sanitize-every", "64"]) == 0
        assert not san.is_installed()  # the runner uninstalls on exit
    finally:
        san.uninstall()
        if prior is not None:
            san.install(prior)
    out = capsys.readouterr().out
    assert "[sanitizer:" in out and "no violations" in out


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_has_a_description(name):
    description, runner = EXPERIMENTS[name]
    assert description
    assert callable(runner)


def test_modes_rejected_for_an_experiment_without_a_mode_sweep(capsys):
    assert main(["fig5", "--modes", "hotmem"]) == 2
    assert "--modes only applies to" in capsys.readouterr().err


def test_mode_sweeping_is_derived_from_the_config_modes_field():
    assert MODE_SWEEPING == {"chaos", "cluster-chaos", "density", "keepalive"}


def test_paper_scale_without_a_paper_config_runs_the_default(capsys):
    assert main(["fig2", "--paper-scale"]) == 0
    assert "[fig2:" in capsys.readouterr().out
