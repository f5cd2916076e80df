"""Mutation operators: deterministic scripted mock and a generic HTTP client."""
from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Sequence
from urllib.parse import urlsplit

from .errors import (MAX_WAIT_MS, ConfigError, OperatorTransportError,
                     read_json_lines)
from .prompts import PromptBundle

API_KEY_ENV = "EVPOLICY_API_KEY"


class MutationOperator(ABC):
    """Turns a prompt bundle into a raw text reply."""

    @abstractmethod
    def complete(self, bundle: PromptBundle) -> str:
        ...

    request_count: int = 0


class MockOperator(MutationOperator):
    """Replays canned replies keyed by call order. Fully deterministic.

    Accepts a list of reply strings or a JSON-lines file whose lines are
    either raw JSON strings or objects with a ``reply`` key. When the canned
    replies run out, the last one repeats.
    """

    def __init__(self, replies: Sequence[str]):
        if not replies:
            raise ConfigError("mock operator needs at least one reply")
        self.replies = list(replies)
        self.request_count = 0

    @classmethod
    def from_jsonl(cls, path) -> "MockOperator":
        replies = []
        for number, line, obj in read_json_lines(path):
            reply = obj.get("reply") if isinstance(obj, dict) else obj
            if not isinstance(reply, str):
                raise ConfigError(
                    f"{path}: line {number}: expected a JSON string or "
                    f"an object with a string 'reply', got "
                    f"{line.strip()[:80]}")
            replies.append(reply)
        return cls(replies)

    def complete(self, bundle: PromptBundle) -> str:
        reply = self.replies[min(self.request_count, len(self.replies) - 1)]
        self.request_count += 1
        return reply


class HttpChatOperator(MutationOperator):
    """Client for any chat-completion style endpoint.

    Sends system/user messages, returns the first choice's content. The API
    key comes from the ``API_KEY_ENV`` environment variable, so it never
    lands in run artifacts.
    """

    def __init__(self, url: str, model: str, temperature: float = 0.2,
                 timeout_s: float = 120.0):
        self.url = url
        self.model = model
        self.temperature = temperature
        self.timeout_s = timeout_s
        self.api_key = os.environ.get(API_KEY_ENV, "")
        self.request_count = 0
        self.token_count = 0

    def complete(self, bundle: PromptBundle) -> str:
        # Imported here: http.client and urllib.request take 30-40 ms to
        # import, and only a run with the HTTP operator sends a request.
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "temperature": self.temperature,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.user_text},
            ],
        }
        request = urllib.request.Request(
            self.url, data=json.dumps(payload).encode(), headers=headers,
            method="POST")
        try:
            # HTTPError (any non-2xx status), URLError and timeouts are
            # OSErrors; a body that is not JSON raises ValueError.
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                body = json.load(resp)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # it holds the response, and its socket, open
            raise OperatorTransportError(f"{self.url}: {exc}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
        except (LookupError, TypeError) as exc:
            raise OperatorTransportError(
                f"{self.url}: reply has no choices[0].message.content "
                f"({type(exc).__name__}: {exc})") from exc
        if not isinstance(content, str):
            raise OperatorTransportError(
                f"{self.url}: reply content is {type(content).__name__}, "
                "not a string")
        self.request_count += 1
        usage = body.get("usage")
        tokens = usage.get("total_tokens", 0) if isinstance(usage, dict) else 0
        if isinstance(tokens, int):
            self.token_count += tokens
        return content


def make_operator(spec: str, http_config: dict | None = None) -> MutationOperator:
    """Build an operator from a CLI spec: ``mock:<replies.jsonl>`` or ``http``."""
    if spec.startswith("mock:"):
        path = Path(spec[5:])
        if not path.exists():
            raise ConfigError(f"mock replies file not found: {path}")
        return MockOperator.from_jsonl(path)
    if spec == "http":
        cfg = http_config or {}
        if not isinstance(cfg, dict) or "url" not in cfg or "model" not in cfg:
            raise ConfigError("http operator needs an object with 'url' and "
                              f"'model' settings, got {cfg!r}")
        url = cfg["url"]
        if not (isinstance(url, str)
                and urlsplit(url).scheme in ("http", "https")):
            raise ConfigError(f"operator.url: expected an http(s) URL, "
                              f"got {url!r}")
        numbers = {key: cfg[key] for key in ("temperature", "timeout_s")
                   if key in cfg}
        for key, value in numbers.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"operator.{key}: expected a number, "
                                  f"got {value!r}")
        operator = HttpChatOperator(url=url, model=cfg["model"], **numbers)
        if not operator.timeout_s > 0:
            raise ConfigError(f"operator.timeout_s: expected a number > 0, "
                              f"got {operator.timeout_s!r}")
        if operator.timeout_s > MAX_WAIT_MS / 1000:
            raise ConfigError(f"operator.timeout_s: expected at most "
                              f"{MAX_WAIT_MS / 1000}, "
                              f"got {operator.timeout_s!r}")
        return operator
    raise ConfigError(f"unknown operator spec {spec!r}")
