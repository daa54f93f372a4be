"""Regression tests: `obs metrics` readouts, `obs trace` exit codes and rendering.

An owned ticket with *nothing recorded* used to print an empty tree and
exit 0 — indistinguishable from success in scripts.  Now human mode
prints an error to stderr and exits 1, ``--json`` still emits the raw
payload and exits 0.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.gateway import GatewayClient, GatewayServer
from repro.obs import tracing
from repro.pipeline import ParsePipeline, ParseRequest
from repro.serve import ParseService


@pytest.fixture()
def gateway():
    with ParseService(pipeline=ParsePipeline()) as service:
        with GatewayServer(service, port=0) as server:
            yield server


def submit_and_finish(server: GatewayServer, client: str = "cli", n_documents: int = 4) -> str:
    with GatewayClient("127.0.0.1", server.port, client=client).connect() as conn:
        source = f"synthetic:{n_documents}?seed=3"
        ticket = conn.submit(ParseRequest(parser="pymupdf", source=source))
        list(ticket.events())
        return ticket.id


class TestObsTraceExitCode:
    def test_spanless_ticket_exits_1_with_stderr_message(self, gateway, capsys):
        tracing.set_enabled(False)
        try:
            ticket_id = submit_and_finish(gateway)
            code = main(
                ["obs", "trace", ticket_id, "--port", str(gateway.port)]
            )
        finally:
            tracing.set_enabled(True)
        captured = capsys.readouterr()
        assert code == 1
        assert "no spans recorded" in captured.err
        assert ticket_id in captured.err

    def test_spanless_ticket_json_mode_still_exits_0(self, gateway, capsys):
        tracing.set_enabled(False)
        try:
            ticket_id = submit_and_finish(gateway)
            code = main(
                ["obs", "trace", ticket_id, "--port", str(gateway.port), "--json"]
            )
        finally:
            tracing.set_enabled(True)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["spans"] == []

    def test_traced_ticket_prints_tree_and_exits_0(self, gateway, capsys):
        ticket_id = submit_and_finish(gateway)
        code = main(["obs", "trace", ticket_id, "--port", str(gateway.port)])
        captured = capsys.readouterr()
        assert code == 0
        assert "gateway.submit" in captured.out

    def test_unknown_ticket_is_a_hard_error(self, gateway):
        with pytest.raises(SystemExit, match="error"):
            main(["obs", "trace", "TICKET-missing", "--port", str(gateway.port)])


class TestObsMetrics:
    """One-shot `obs metrics`: the local registry, or a live gateway's."""

    FAMILY = "repro_gateway_submitted_total"

    def test_local_text_mode(self, gateway, capsys):
        # The gateway runs in this process, so its counters are in the
        # local default registry too.
        submit_and_finish(gateway)
        assert main(["obs", "metrics"]) == 0
        assert f"# TYPE {self.FAMILY} counter" in capsys.readouterr().out

    def test_local_json_mode_parses(self, gateway, capsys):
        submit_and_finish(gateway)
        assert main(["obs", "metrics", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict)
        assert self.FAMILY in payload

    @pytest.mark.parametrize(
        "address", [["--port", "9"], ["--host", "127.0.0.1"]], ids=["port-only", "host-only"]
    )
    def test_half_given_address_is_an_error(self, address, capsys):
        # A local dump here would pass for a successful gateway scrape.
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "metrics", *address])
        assert str(exit_info.value.code).startswith("error: ")
        assert "a gateway scrape needs both" in str(exit_info.value.code)
        assert capsys.readouterr().out == ""

    def test_live_gateway_text_scrape(self, gateway, capsys):
        submit_and_finish(gateway)
        code = main(
            ["obs", "metrics", "--host", "127.0.0.1", "--port", str(gateway.port)]
        )
        assert code == 0
        assert self.FAMILY in capsys.readouterr().out

    def test_live_gateway_json_scrape(self, gateway, capsys):
        submit_and_finish(gateway)
        code = main(
            [
                "obs", "metrics", "--host", "127.0.0.1",
                "--port", str(gateway.port), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict)
        assert self.FAMILY in payload
