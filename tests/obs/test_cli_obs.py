"""Regression tests: `obs trace` / `obs profile` exit codes and rendering.

An owned ticket with *nothing recorded* used to print an empty tree and
exit 0 — indistinguishable from success in scripts.  Both commands now
share the contract: human mode prints an error to stderr and exits 1,
``--json`` still emits the raw payload and exits 0.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.gateway import GatewayClient, GatewayServer
from repro.obs import profiling, tracing
from repro.pipeline import ParsePipeline, ParseRequest
from repro.serve import ParseService


@pytest.fixture()
def gateway():
    profiling.default_store().clear()
    with ParseService(pipeline=ParsePipeline()) as service:
        with GatewayServer(service, port=0) as server:
            yield server
    profiling.default_store().clear()


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


# The sampler ticks every 10 ms and four documents now take under two ticks:
# a ticket that must have samples runs long enough to be hit by many.
SAMPLED_DOCUMENTS = 32


class TestObsProfileExitCode:
    def test_profileless_ticket_exits_1_with_stderr_message(self, gateway, capsys):
        assert not profiling.profiling_enabled()
        ticket_id = submit_and_finish(gateway)
        code = main(["obs", "profile", ticket_id, "--port", str(gateway.port)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no profile recorded" in captured.err
        assert "--profile" in captured.err  # the fix hint

    def test_profileless_ticket_json_mode_still_exits_0(self, gateway, capsys):
        ticket_id = submit_and_finish(gateway)
        code = main(
            ["obs", "profile", ticket_id, "--port", str(gateway.port), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["profile"] is None

    def test_zero_sample_profile_is_a_fast_ticket_not_an_error(self, gateway, capsys):
        """A profiled ticket that finished inside one sampler tick is stored
        with no samples; that is not the operator forgetting --profile."""
        ticket_id = submit_and_finish(gateway)
        profiling.default_store().put(ticket_id, profiling.Profile())
        for extra in ([], ["--top", "3"]):
            code = main(["obs", "profile", ticket_id, "--port", str(gateway.port), *extra])
            captured = capsys.readouterr()
            assert code == 0
            assert "0 sample(s) at 10ms" in captured.out
            assert "finished inside one sampler tick" in captured.out
            assert "no profile recorded" not in captured.err

    def test_profiled_ticket_prints_collapsed_stacks(self, gateway, capsys):
        profiling.set_profiling_enabled(True)
        try:
            ticket_id = submit_and_finish(gateway, n_documents=SAMPLED_DOCUMENTS)
            code = main(
                ["obs", "profile", ticket_id, "--port", str(gateway.port)]
            )
        finally:
            profiling.set_profiling_enabled(False)
        captured = capsys.readouterr()
        assert code == 0
        assert "sample(s)" in captured.out
        # collapsed format: "frame;frame;... count" lines
        body = captured.out.splitlines()[1:]
        assert body and all(line.rsplit(" ", 1)[1].isdigit() for line in body)

    def test_profiled_ticket_top_table(self, gateway, capsys):
        profiling.set_profiling_enabled(True)
        try:
            ticket_id = submit_and_finish(gateway, n_documents=SAMPLED_DOCUMENTS)
            code = main(
                [
                    "obs", "profile", ticket_id,
                    "--port", str(gateway.port), "--top", "3",
                ]
            )
        finally:
            profiling.set_profiling_enabled(False)
        captured = capsys.readouterr()
        assert code == 0
        assert "%" in captured.out

    def test_unknown_ticket_is_a_hard_error(self, gateway):
        with pytest.raises(SystemExit, match="error"):
            main(["obs", "profile", "TICKET-missing", "--port", str(gateway.port)])
