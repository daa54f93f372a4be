"""Regression tests: `obs metrics` readouts, local and from a live gateway."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.gateway import GatewayClient, GatewayServer
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
