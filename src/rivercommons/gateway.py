"""Uniform access to a chat-completion endpoint (OpenAI-style wire schema)
plus a deterministic scripted stub so every pipeline runs offline.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import re
import time
from dataclasses import dataclass
from importlib import resources

from .errors import (ConfigurationError, SchemaError, TemplateError, TransportError,
                     check_fields)

ENV_ENDPOINT = "RIVERCOMMONS_ENDPOINT"
ENV_API_KEY = "RIVERCOMMONS_API_KEY"
ENV_MODEL = "RIVERCOMMONS_MODEL"
DEFAULT_FIXTURE = str(resources.files(__package__) / "fixtures" / "stub_default.json")


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple          # ordered (role, content) pairs; role in {system, user}

    def __post_init__(self):
        if not isinstance(self.model, str):
            raise ConfigurationError(f"model must be a str, got {self.model!r}")
        if not self.messages:
            raise ConfigurationError("a chat request needs at least one message")
        for role, content in self.messages:
            if role not in ("system", "user"):
                raise ConfigurationError(
                    f"message roles must be 'system' or 'user', got {role!r}")
            if not isinstance(content, str):
                raise ConfigurationError(f"message content must be a str, got {content!r}")


@dataclass(frozen=True)
class GatewayConfig:
    backend: str = "stub"                 # "stub" or "http"
    endpoint: str = None
    model: str = None
    timeout: float = 30.0
    max_retries: int = 2
    backoff_base: float = 0.5
    fixture_path: str = None
    log_path: str = None

    def __post_init__(self):
        check_fields(self)
        if self.backend not in ("stub", "http"):
            raise ConfigurationError(f"unknown gateway backend: {self.backend!r}")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout!r}")
        if self.backoff_base < 0:
            raise ConfigurationError(f"backoff_base must be >= 0, got {self.backoff_base!r}")
        if self.endpoint is None:
            object.__setattr__(self, "endpoint", os.environ.get(ENV_ENDPOINT))
        if self.model is None:
            object.__setattr__(self, "model", os.environ.get(ENV_MODEL, "stub-model"))
        if self.backend == "stub" and not self.fixture_path:
            object.__setattr__(self, "fixture_path", DEFAULT_FIXTURE)
        if self.backend == "http" and not self.endpoint:
            raise ConfigurationError("http backend requires an endpoint "
                                     f"(set {ENV_ENDPOINT} or config)")


def request_fingerprint(request: ChatRequest) -> str:
    """Stable short hash of the rendered prompt, used for fixture matching."""
    blob = "\n".join(f"{role}:{content}" for role, content in request.messages)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class Gateway:
    """Chat-completion client with one retry loop, request logging and a stub mode.

    The stub replays a fixture: a JSON array of {fingerprint (optional),
    response} entries. A request is answered by the next unused entry whose
    fingerprint matches; absent a match, by the next entry in the
    unfingerprinted pool (cycling), which keeps arbitrarily long runs fully
    deterministic from a small fixture.
    """

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.call_count = 0
        self._replies = {}       # fingerprint -> cycle of replies; None keys the pool
        self._log_file = None
        if config.backend == "stub":
            try:
                with open(config.fixture_path, "r", encoding="utf-8") as fh:
                    entries = json.load(fh)
            except (OSError, ValueError) as err:
                raise ConfigurationError(
                    f"cannot read stub fixture {config.fixture_path}: {err}") from err
            if (not isinstance(entries, list) or not entries
                    or not all(isinstance(e, dict) and "response" in e for e in entries)):
                raise ConfigurationError("fixture must be a non-empty JSON array of "
                                         "objects with a response")
            replies = {}
            for entry in entries:
                response = entry["response"]
                if not isinstance(response, str):
                    response = json.dumps(response)
                replies.setdefault(entry.get("fingerprint"), []).append(response)
            self._replies = {fp: itertools.cycle(r) for fp, r in replies.items()}

    def ask(self, messages: tuple, parse, tags: dict = None):
        """`parse` of the reply to `messages`, sent at most `max_retries + 1`
        times. A SchemaError from `parse` and a TransportError each use up one
        send; after an HTTP transport failure the next send waits
        `backoff_base * 2**attempt` seconds. When the sends run out, the last
        error is raised."""
        request = ChatRequest(model=self.config.model, messages=messages)
        for attempt in range(self.config.max_retries + 1):
            try:
                return parse(self.complete(request, tags))
            except SchemaError as err:
                last_err = err
            except TransportError as err:
                last_err = err
                if self.config.backend == "http" and attempt < self.config.max_retries:
                    time.sleep(self.config.backoff_base * 2 ** attempt)
        raise last_err

    def complete(self, request: ChatRequest, tags: dict = None) -> str:
        """One send: a stub lookup or one POST. The reply is counted and the
        prompt/response pair appended to the request log."""
        fp = request_fingerprint(request)
        if self.config.backend == "stub":
            text = self._complete_stub(fp)
        else:
            text = self._complete_http(request)
        self.call_count += 1
        self._log(request, fp, text, tags)
        return text

    def _complete_stub(self, fp: str) -> str:
        replies = self._replies.get(fp, self._replies.get(None))
        if replies is None:
            raise TransportError("stub fixture has no sequential entries for "
                                 f"unmatched fingerprint {fp}")
        return next(replies)

    def _complete_http(self, request: ChatRequest) -> str:
        import requests

        body = {
            "model": request.model,
            "messages": [{"role": r, "content": c} for r, c in request.messages],
            "temperature": 0.0,
            "max_tokens": 256,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(ENV_API_KEY)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            resp = requests.post(self.config.endpoint, json=body,
                                 headers=headers, timeout=self.config.timeout)
            resp.raise_for_status()
            return resp.json()["choices"][0]["message"]["content"]
        except (requests.RequestException, KeyError, IndexError, TypeError,
                ValueError) as err:
            raise TransportError(f"chat completion failed: {err}") from err

    def _log(self, request: ChatRequest, fp: str, response: str, tags: dict):
        if not self.config.log_path:
            return
        if self._log_file is None:
            self._log_file = open(self.config.log_path, "a", encoding="utf-8")
        record = {
            "tags": tags or {},
            "fingerprint": fp,
            "messages": [{"role": r, "content": c} for r, c in request.messages],
            "response": response,
        }
        self._log_file.write(json.dumps(record, sort_keys=True) + "\n")
        self._log_file.flush()

    def close(self):
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None


_PLACEHOLDER = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


@functools.lru_cache
def _compile(template: str):
    """(format string, placeholder names) of a template: literal braces are
    doubled and each `{name}` becomes `{name!s}`, so one `format_map` call
    substitutes every placeholder once and leaves all other text alone."""
    pieces = _PLACEHOLDER.split(template)      # literal, name, literal, ..., literal
    literals = [p.replace("{", "{{").replace("}", "}}") for p in pieces[::2]]
    names = pieces[1::2]
    fmt = "".join(lit + "{" + name + "!s}" for lit, name in zip(literals, names))
    return fmt + literals[-1], frozenset(names)


def render_prompt(template: str, variables: dict) -> str:
    """Exact single-pass substitution of each `{identifier}` placeholder by
    `str` of its value; every other brace stays as it is, and unresolved names
    raise TemplateError."""
    fmt, names = _compile(template)
    missing = names.difference(variables)
    if missing:
        raise TemplateError(missing)
    return fmt.format_map(variables)


_FENCED = re.compile(r"```(?:[a-zA-Z0-9_-]*)\s*\n?(.*?)```", re.S)
_OPENER = re.compile(r"[\[{]")
_INTEGER = re.compile(r"-?\d+")
_DECODER = json.JSONDecoder()


def extract_structured(text: str):
    """First fenced or bare JSON value in the text, else the first integer.

    Raises SchemaError when nothing extractable is present.
    """
    if text is None:
        raise SchemaError("no text to parse")
    for block in _FENCED.findall(text):
        try:
            return json.loads(block)
        except ValueError:
            continue
    for match in _OPENER.finditer(text):
        try:
            return _DECODER.raw_decode(text, match.start())[0]
        except ValueError:
            continue
    m = _INTEGER.search(text)
    if m:
        return int(m.group(0))
    raise SchemaError("nothing extractable in reply")
