"""Regression tests: `obs trace` exit codes and rendering.

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
