"""Tests for the full-evaluation campaign runner."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.campaign import FIGURE_DRIVERS, run_campaign


class TestRunCampaign:
    def test_subset_run(self):
        campaign = run_campaign(trials=2, seed=1, figures=["fig5"])
        assert [r.name for r in campaign.results] == ["fig5"]
        assert campaign.trials == 2
        assert campaign.elapsed_seconds > 0

    def test_by_name(self):
        campaign = run_campaign(trials=2, seed=1, figures=["fig5"])
        assert campaign.by_name("fig5").name == "fig5"
        with pytest.raises(ConfigurationError):
            campaign.by_name("fig9")

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(trials=1, figures=["fig9"])

    def test_progress_callback(self):
        lines = []
        run_campaign(trials=2, seed=1, figures=["fig5"], progress=lines.append)
        assert lines and "fig5" in lines[0]

    def test_render_contains_each_figure(self):
        campaign = run_campaign(trials=2, seed=1, figures=["fig5"])
        text = campaign.render()
        assert "full evaluation run" in text
        assert "== fig5" in text

    def test_unseeded_run_prints_a_seed_that_reproduces_it(self):
        campaign = run_campaign(trials=2, figures=["fig5", "fig3b"])
        header, tables = campaign.render().split("\n", 2)[1:]
        seed = int(header.split("seed: ")[1].split(";")[0])
        assert seed == campaign.seed
        rerun = run_campaign(trials=2, seed=seed, figures=["fig5", "fig3b"])
        assert rerun.render().split("\n", 2)[2] == tables

    def test_all_drivers_registered(self):
        assert set(FIGURE_DRIVERS) == {"fig3a", "fig3b", "fig4", "fig5"}

    def test_cli_all_command(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "report.md"
        # Tiny trial count keeps this a smoke test; full runs are the
        # benchmarks' job.
        code = main(["all", "--trials", "2", "--seed", "1", "--output", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "== fig3a" in out and "== fig5" in out
        assert out_file.exists()
        assert "== fig4" in out_file.read_text()
