"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_ask_command(self, capsys):
        code = main(["--topics", "25", "--seed", "3", "ask", "Come posso attivare la carta di credito?"])
        assert code == 0
        out = capsys.readouterr().out
        assert "❓" in out
        assert "Documenti trovati:" in out or "⚠" in out

    def test_ask_command_with_trace(self, capsys):
        code = main(
            ["--topics", "25", "--seed", "3", "ask", "Come posso attivare la carta di credito?", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage" in out and "total" in out
        for stage in ("content_filter", "fulltext", "fusion", "rerank", "llm"):
            assert stage in out

    def test_ask_command_with_metrics(self, capsys):
        code = main(
            ["--topics", "25", "--seed", "3", "ask", "limiti prelievo bancomat", "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# HELP" in out and "# TYPE" in out

    def test_ask_command_with_explain(self, capsys):
        code = main(
            ["--topics", "25", "--seed", "3", "ask", "come sbloccare la carta di credito", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sums_exact=True" in out
        assert "rrf_text" in out
        assert "rerank" in out
        assert "top terms:" in out

    def test_ask_command_with_profile(self, capsys):
        code = main(
            [
                "--topics", "25", "--seed", "3",
                "ask", "Come posso attivare la carta di credito?", "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile: 1 traces" in out
        assert "work:" in out
        assert "docs_scored=" in out and "llm_prompt_tokens=" in out

    def test_profile_command_top(self, capsys):
        code = main(["--topics", "25", "--seed", "3", "profile", "--queries", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile: 4 traces" in out
        assert "path" in out and "llm" in out

    def test_profile_command_folded(self, capsys):
        code = main(
            ["--topics", "25", "--seed", "3", "profile", "--queries", "3", "--format", "folded"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            frames, value = line.rsplit(" ", 1)
            assert frames and int(value) >= 0

    def test_profile_command_speedscope(self, capsys):
        import json

        code = main(
            ["--topics", "25", "--seed", "3", "profile", "--queries", "2", "--format", "speedscope"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["profiles"][0]["type"] == "sampled"

    def test_profile_command_saturation(self, capsys):
        code = main(
            ["--topics", "25", "--seed", "3", "profile", "--queries", "3", "--saturation"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resource" in out and "backend" in out

    def test_metrics_command_with_audit(self, capsys, tmp_path):
        audit_path = tmp_path / "audit.jsonl"
        code = main(
            ["--topics", "25", "--seed", "3", "metrics", "--queries", "3", "--audit", str(audit_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# HELP" in out
        assert "healthz:" in out and "readyz:" in out
        assert "SLO" in out
        assert audit_path.exists()
        assert audit_path.read_text().count('"request"') >= 3

    def test_metrics_command_exits_nonzero_on_page_alert(self, capsys, monkeypatch):
        from repro.service.alerting import Alert
        from repro.service.backend import BackendService

        def paging(self):
            return [Alert(rule="slo_availability", severity="critical", message="burning")]

        monkeypatch.setattr(BackendService, "_ops_slo", paging)
        code = main(["--topics", "25", "--seed", "3", "metrics", "--queries", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "SLO ALERT [critical]" in out

    def test_metrics_command_shows_the_guardrail_rate_warning(self, capsys):
        # 8 of these 40 asks are guardrailed (20% > the 15% threshold rule);
        # a warning is printed, and only page severity fails the gate.
        code = main(["--topics", "20", "--seed", "3", "metrics", "--queries", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO ALERT [warning] guardrail_rate: guardrails triggered on 20.0%" in out
        assert "all objectives within budget" not in out

    def test_canary_command(self, capsys):
        code = main(["--topics", "25", "--seed", "3", "canary", "--probes", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "canary run" in out
        assert "recall@4" in out
        assert "no degradation" in out

    def test_eval_command(self, capsys):
        code = main(["--topics", "25", "--seed", "3", "eval", "--questions", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MRR" in out
        assert "UniAsk" in out

    def test_loadtest_command(self, capsys):
        code = main(["loadtest", "--minutes", "10", "--quota", "500000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total requests" in out

    def test_incident_command_chaos_day(self, capsys):
        code = main(
            [
                "--topics", "16", "--seed", "23",
                "incident", "--duration", "600", "--questions", "30",
                "--timeline", "--diagnose",
            ]
        )
        # The injected kill has no revive and no autoscaler heals it, so
        # the incident stays open and the command must exit non-zero.
        assert code == 1
        out = capsys.readouterr().out
        assert "incidents: 1 open / 1 total" in out
        assert "rules=slo_completeness" in out
        assert "cause=replica_kill" in out
        # The timeline orders the injected fault before the page.
        assert out.index("replica_kill") < out.index("** page")
        assert "cache_epoch_flip" in out
        assert "suspected causes:" in out
        assert "diagnosis of q-" in out
        assert "partial results" in out

    def test_incident_command_show_unknown_id(self, capsys):
        code = main(
            [
                "--topics", "16", "--seed", "23",
                "incident", "--duration", "120", "--no-chaos", "--show", "inc-9999",
            ]
        )
        assert code == 2

    def test_incident_command_clean_day_exits_zero(self, capsys):
        code = main(
            [
                "--topics", "16", "--seed", "23",
                "incident", "--duration", "120", "--no-chaos",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "incidents: 0 open / 0 total" in out
        assert "(none — no page-severity alert fired)" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_more_topics_than_the_vocabulary_builds_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--topics", "1387", "ask", "come bloccare la carta"])
        assert exit_info.value.code == 2
        assert "--topics 1387 exceeds the 1386" in capsys.readouterr().err
