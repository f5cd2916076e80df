"""HttpChatOperator against an in-process HTTP server on the loopback address."""
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from evpolicy.cli import main
from evpolicy.errors import OperatorTransportError
from evpolicy.operators import API_KEY_ENV, HttpChatOperator
from evpolicy.prompts import PromptBundle

SECRET = "sk-test-0123456789abcdef"
BUNDLE = PromptBundle(system_text="be a controller", user_text="write rules")


def chat_reply(content, **extra) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}],
                       **extra}).encode()


class ChatServer:
    """Answers every POST with one canned reply and records what it got."""

    def __init__(self, body: bytes, status: int = 200, delay_s: float = 0.0):
        self.requests: list[dict] = []
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                server.requests.append({
                    "headers": dict(self.headers),
                    "payload": json.loads(self.rfile.read(length))})
                time.sleep(delay_s)
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except OSError:  # the client gave up waiting
                    pass

            def log_message(self, *args):
                pass

        self.httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_port}/v1/chat"
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.02})

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


def operator(url, **kwargs):
    return HttpChatOperator(url=url, model="test-model", temperature=0.3,
                            **kwargs)


class TestSuccess:
    @pytest.mark.parametrize("key", ["", SECRET], ids=["no-key", "key"])
    def test_payload_and_authorization(self, monkeypatch, key):
        if key:
            monkeypatch.setenv(API_KEY_ENV, key)
        else:
            monkeypatch.delenv(API_KEY_ENV, raising=False)
        with ChatServer(chat_reply("if soc < 0.2 then 7")) as server:
            op = operator(server.url)
            assert op.complete(BUNDLE) == "if soc < 0.2 then 7"
        [request] = server.requests
        assert request["payload"] == {
            "model": "test-model", "temperature": 0.3,
            "messages": [
                {"role": "system", "content": "be a controller"},
                {"role": "user", "content": "write rules"}]}
        assert request["headers"]["Content-Type"] == "application/json"
        if key:
            assert request["headers"]["Authorization"] == f"Bearer {SECRET}"
        else:
            assert "Authorization" not in request["headers"]
        assert op.request_count == 1

    def test_total_tokens_are_counted(self):
        body = chat_reply("ok", usage={"total_tokens": 42})
        with ChatServer(body) as server:
            op = operator(server.url)
            op.complete(BUNDLE)
            op.complete(BUNDLE)
        assert op.token_count == 84
        assert op.request_count == 2


class TestTransportErrors:
    @pytest.mark.parametrize("body,status,delay_s", [
        (chat_reply("ok"), 500, 0.0),
        (b"<html>not json</html>", 200, 0.0),
        (b"[]", 200, 0.0),
        (b'"a string"', 200, 0.0),
        (b"{}", 200, 0.0),
        (json.dumps({"choices": []}).encode(), 200, 0.0),
        (chat_reply(None), 200, 0.0),
        (chat_reply(["not", "text"]), 200, 0.0),
        (chat_reply("late"), 200, 0.6),
    ], ids=["http-500", "not-json", "list-body", "string-body", "no-choices",
            "empty-choices", "null-content", "list-content", "timeout"])
    def test_becomes_transport_error(self, monkeypatch, body, status, delay_s):
        monkeypatch.setenv(API_KEY_ENV, SECRET)
        with ChatServer(body, status=status, delay_s=delay_s) as server:
            op = operator(server.url, timeout_s=0.2)
            with pytest.raises(OperatorTransportError) as info:
                op.complete(BUNDLE)
        message = str(info.value)
        assert message.startswith(f"{server.url}: ")
        assert SECRET not in message
        assert op.request_count == 0

    def test_refused_connection(self):
        with ChatServer(chat_reply("ok")) as server:
            url = server.url
        with pytest.raises(OperatorTransportError):
            operator(url, timeout_s=2.0).complete(BUNDLE)


def test_evolve_retries_a_malformed_reply(tmp_path):
    # Each iteration's request is tried three times; an iteration whose
    # operator keeps failing is recorded as a transport failure and ends
    # the run with exit code 3.
    with ChatServer(b"[]") as server:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "operator": {"url": server.url, "model": "test-model"},
            "retry_base_delay": 0}))
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "1",
                     "--operator", "http", "--config", str(config),
                     "--out", str(out)])
    assert code == 3
    assert len(server.requests) == 3
    [iteration] = json.loads((out / "run.json").read_text())["iterations"]
    assert iteration["failure"].startswith("operator transport failure")
