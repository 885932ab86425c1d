import importlib.util
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import rivercommons
from rivercommons import (BehaviourProfile, ChatRequest, ConfigurationError,
                          Decision, Gateway, GatewayConfig, RunConfig,
                          SchemaError, TemplateError, TransportError,
                          extract_structured, generative_decide, render_prompt,
                          request_fingerprint, run_simulation)
from rivercommons.config import load_prompts


def write_fixture(tmp_path, entries, name="fixture.json"):
    path = tmp_path / name
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


def stub_gateway(tmp_path, entries, **cfg):
    return Gateway(GatewayConfig(backend="stub",
                                 fixture_path=write_fixture(tmp_path, entries),
                                 **cfg))


def user_request(text):
    return ChatRequest(model="stub-model", messages=(("user", text),))


class TestChatRequest:
    def test_requires_messages(self):
        with pytest.raises(ConfigurationError):
            ChatRequest(model="m", messages=())

    def test_rejects_unknown_role(self):
        with pytest.raises(ConfigurationError):
            ChatRequest(model="m", messages=(("assistant", "hi"),))

    @pytest.mark.parametrize("role", [None, 5, b"user"])
    def test_rejects_non_str_role(self, role):
        with pytest.raises(ConfigurationError, match="roles"):
            ChatRequest(model="m", messages=((role, "hi"),))

    @pytest.mark.parametrize("model", [None, 5])
    def test_rejects_non_str_model(self, model):
        # Once sent as "model": null or "model": 5.
        with pytest.raises(ConfigurationError, match="model"):
            ChatRequest(model=model, messages=(("user", "hi"),))

    @pytest.mark.parametrize("content", [None, 5])
    def test_rejects_non_str_content(self, content):
        # Once sent as the text "None" or "5".
        with pytest.raises(ConfigurationError, match="content must be a str"):
            ChatRequest(model="m", messages=(("system", "be brief"), ("user", content)))

    def test_fingerprint_stable_and_content_sensitive(self):
        a = request_fingerprint(user_request("hello"))
        b = request_fingerprint(user_request("hello"))
        c = request_fingerprint(user_request("other"))
        assert a == b != c
        assert len(a) == 16


class TestStubBackend:
    def test_single_entry(self, tmp_path):
        gw = stub_gateway(tmp_path, [{"response": "7"}])
        assert gw.complete(user_request("anything")) == "7"

    def test_sequential_pool_cycles(self, tmp_path):
        gw = stub_gateway(tmp_path, [{"response": "a"}, {"response": "b"}])
        got = [gw.complete(user_request(f"q{i}")) for i in range(5)]
        assert got == ["a", "b", "a", "b", "a"]

    def test_fingerprint_match_takes_priority(self, tmp_path):
        req = user_request("the special prompt")
        fp = request_fingerprint(req)
        gw = stub_gateway(tmp_path, [{"response": "generic"},
                                     {"fingerprint": fp, "response": "matched"}])
        assert gw.complete(req) == "matched"
        assert gw.complete(user_request("other")) == "generic"
        # A matched fingerprint does not consume the sequential pool.
        assert gw.complete(req) == "matched"

    def test_non_string_response_serialized(self, tmp_path):
        gw = stub_gateway(tmp_path, [{"response": {"fields": 4}}])
        assert json.loads(gw.complete(user_request("x"))) == {"fields": 4}

    def test_empty_fixture_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            stub_gateway(tmp_path, [])

    def test_default_fixture_is_the_packaged_one(self):
        cfg = GatewayConfig(backend="stub")
        packaged = Path(rivercommons.__file__).parent / "fixtures" / "stub_default.json"
        assert Path(cfg.fixture_path) == packaged
        assert Gateway(cfg).complete(user_request("any")) != ""

    @pytest.mark.parametrize("content", [None, "{not json", '[{"text": "7"}]'])
    def test_unusable_fixture_file_rejected(self, tmp_path, content):
        path = tmp_path / "fixture.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigurationError):
            Gateway(GatewayConfig(backend="stub", fixture_path=str(path)))

    def test_only_fingerprinted_entries_and_no_match(self, tmp_path):
        gw = stub_gateway(tmp_path, [{"fingerprint": "0" * 16,
                                      "response": "never"}])
        with pytest.raises(TransportError):
            gw.complete(user_request("unmatched"))

    def test_determinism_across_instances(self, tmp_path):
        entries = [{"response": str(i)} for i in range(3)]
        gw1 = stub_gateway(tmp_path, entries)
        gw2 = stub_gateway(tmp_path, entries)
        reqs = [user_request(f"r{i}") for i in range(7)]
        assert [gw1.complete(r) for r in reqs] == [gw2.complete(r) for r in reqs]

    def test_request_log(self, tmp_path):
        log_path = tmp_path / "requests.jsonl"
        gw = stub_gateway(tmp_path, [{"response": "ok"}],
                          log_path=str(log_path))
        gw.complete(user_request("hello"),
                    tags={"year": 3, "household": 1, "pipeline": "generative"})
        gw.close()
        lines = log_path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["tags"] == {"year": 3, "household": 1,
                                  "pipeline": "generative"}
        assert record["response"] == "ok"
        assert record["messages"][0]["content"] == "hello"

    def test_request_log_fingerprints_and_matching(self, tmp_path):
        special = user_request("the special prompt")
        log_path = tmp_path / "requests.jsonl"
        gw = stub_gateway(tmp_path, [{"response": "generic"},
                                     {"fingerprint": request_fingerprint(special),
                                      "response": "matched"}],
                          log_path=str(log_path))
        requests = [special, user_request("other"), special]
        assert [gw.complete(r) for r in requests] == ["matched", "generic", "matched"]
        gw.close()
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [r["fingerprint"] for r in records] == \
            [request_fingerprint(r) for r in requests]
        assert [r["response"] for r in records] == ["matched", "generic", "matched"]


class _Echo(BaseHTTPRequestHandler):
    reply = "echoed content"

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        assert body["messages"], "chat body must carry messages"
        payload = {"choices": [{"message": {"content": self.reply}}]}
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def echo_server():
    server = HTTPServer(("127.0.0.1", 0), _Echo)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestGatewayConfig:
    def test_run_config_is_hashable(self):
        from rivercommons import RunConfig
        assert hash(RunConfig()) == hash(RunConfig())

    def test_negative_backoff_rejected(self):
        with pytest.raises(ConfigurationError, match="backoff_base"):
            GatewayConfig(backoff_base=-0.5)

    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ConfigurationError, match="timeout"):
            GatewayConfig(backend="http", endpoint="http://127.0.0.1:9/", timeout=timeout)

    def test_model_from_environment(self, monkeypatch):
        monkeypatch.setenv("RIVERCOMMONS_MODEL", "env-model")
        assert GatewayConfig().model == "env-model"
        assert GatewayConfig(model="explicit").model == "explicit"


class TestHttpBackend:
    def test_round_trip(self, echo_server):
        gw = Gateway(GatewayConfig(backend="http", endpoint=echo_server,
                                   model="test-model"))
        assert gw.complete(user_request("hi")) == "echoed content"
        assert gw.call_count == 1

    def test_exhausted_retries_raise_transport_error(self):
        gw = Gateway(GatewayConfig(backend="http",
                                   endpoint="http://127.0.0.1:9/nope",
                                   model="m", max_retries=1,
                                   backoff_base=0.0, timeout=0.2))
        with pytest.raises(TransportError):
            gw.complete(user_request("hi"))

    def test_endpoint_required(self, monkeypatch):
        monkeypatch.delenv("RIVERCOMMONS_ENDPOINT", raising=False)
        with pytest.raises(ConfigurationError):
            GatewayConfig(backend="http")


class _Scripted(BaseHTTPRequestHandler):
    """Answers the n-th POST with script[n % len(script)]: an int is an error
    status, bytes the whole response body, a str the reply content. `posts`
    counts the POSTs received and `bodies` holds each decoded request body."""
    script = ()
    posts = 0
    bodies = None

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).bodies.append(json.loads(body))
        step = self.script[type(self).posts % len(self.script)]
        type(self).posts += 1
        if isinstance(step, int):
            self.send_error(step)
            return
        data = step if isinstance(step, bytes) else json.dumps(
            {"choices": [{"message": {"content": step}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    """start(*script) -> (handler class, endpoint URL) of a fresh server."""
    running = []

    def start(*script):
        handler = type("Handler", (_Scripted,), {"script": script, "posts": 0, "bodies": []})
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        running.append((server, thread))
        return handler, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def http_gateway(endpoint, **cfg):
    return Gateway(GatewayConfig(backend="http", endpoint=endpoint, model="m",
                                 backoff_base=0.0, **cfg))


QUESTION = (("user", "How many fields?"),)


class TestAsk:
    """Gateway.ask is the one retry loop: each question gets at most
    max_retries + 1 sends, whatever mix of failures it meets."""

    def test_alternating_server_error_and_prose_falls_back(self, scripted_server):
        handler, endpoint = scripted_server(500, "no numbers here")
        gw = http_gateway(endpoint, max_retries=2)
        decision, events = generative_decide(
            {}, BehaviourProfile("You are a farmer."), gw,
            "Reply with a field count.", 10, 5, lambda: Decision(1, 1))
        assert (decision, events) == (Decision(1, 1), ["fallback"])
        assert handler.posts == 3
        assert gw.call_count == 1      # only the prose reply arrived

    @pytest.mark.parametrize("failure", [500, b"[]", b'{"choices": []}', b"not json"])
    def test_failed_send_then_parseable_reply(self, scripted_server, failure):
        handler, endpoint = scripted_server(failure, "7")
        gw = http_gateway(endpoint, max_retries=2)
        assert gw.ask(QUESTION, extract_structured) == 7
        assert handler.posts == 2

    def test_http_request_body(self, scripted_server):
        handler, endpoint = scripted_server("7")
        assert http_gateway(endpoint).ask(QUESTION, extract_structured) == 7
        assert handler.bodies == [{"model": "m",
                                   "messages": [{"role": "user", "content": "How many fields?"}],
                                   "temperature": 0.0, "max_tokens": 256}]

    def test_http_backoff_between_sends_only(self, scripted_server, monkeypatch):
        waits = []
        monkeypatch.setattr("rivercommons.gateway.time.sleep", waits.append)
        handler, endpoint = scripted_server(503)
        gw = Gateway(GatewayConfig(backend="http", endpoint=endpoint, model="m",
                                   max_retries=2, backoff_base=0.25))
        with pytest.raises(TransportError):
            gw.ask(QUESTION, extract_structured)
        assert handler.posts == 3
        assert waits == [0.25, 0.5]

    def test_stub_pool_consumed_and_logged_once_per_send(self, tmp_path, monkeypatch):
        waits = []
        monkeypatch.setattr("rivercommons.gateway.time.sleep", waits.append)
        log_path = tmp_path / "requests.jsonl"
        gw = stub_gateway(tmp_path, [{"response": "no"}, {"response": "nope"},
                                     {"response": "none"}],
                          max_retries=3, log_path=str(log_path))
        with pytest.raises(SchemaError):
            gw.ask(QUESTION, extract_structured, {"stage": "test"})
        gw.close()
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [r["response"] for r in records] == ["no", "nope", "none", "no"]
        assert gw.call_count == 4
        assert gw.complete(user_request("next")) == "nope"
        assert waits == []
        gw.close()

    def test_unmatched_stub_fingerprint_counts_and_logs_nothing(self, tmp_path):
        log_path = tmp_path / "requests.jsonl"
        gw = stub_gateway(tmp_path, [{"fingerprint": "0" * 16, "response": "7"}],
                          log_path=str(log_path))
        with pytest.raises(TransportError):
            gw.ask(QUESTION, extract_structured)
        gw.close()
        assert gw.call_count == 0
        assert not log_path.exists()

    def test_unparseable_extraction_raises_after_all_sends(self, tmp_path):
        extraction = ChatRequest(model="stub-model",
                                 messages=(("user", load_prompts()["as_extraction"]),))
        fixture = write_fixture(tmp_path, [
            {"fingerprint": request_fingerprint(extraction), "response": "no structure"},
            {"response": "7"}])
        log_path = tmp_path / "requests.jsonl"
        cfg = RunConfig(pipeline="naive-egta", horizon=2, gateway=GatewayConfig(
            model="stub-model", max_retries=2, fixture_path=fixture,
            log_path=str(log_path)))
        with pytest.raises(SchemaError):
            run_simulation(cfg)
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [r["tags"] for r in records] == [{"stage": "as_extraction"}] * 3
        assert {r["response"] for r in records} == {"no structure"}


class TestRenderPrompt:
    def test_substitution(self):
        assert render_prompt("plant {w} units", {"w": 10}) == "plant 10 units"

    def test_identity_without_placeholders(self):
        assert render_prompt("no holes here", {}) == "no holes here"

    def test_missing_variable_named(self):
        with pytest.raises(TemplateError) as err:
            render_prompt("need {alpha} and {beta}", {"alpha": 1})
        assert err.value.missing == ("beta",)

    def test_extra_variables_ignored(self):
        assert render_prompt("just {a}", {"a": 1, "b": 2}) == "just 1"

    def test_json_braces_not_placeholders(self):
        template = 'reply as {"fields": <n>} using {budget}'
        assert render_prompt(template, {"budget": 5}) == \
            'reply as {"fields": <n>} using 5'


class TestExtractStructured:
    def test_fenced_json(self):
        assert extract_structured('```json\n{"fields": 4}\n```') == {"fields": 4}

    def test_bare_json_object(self):
        assert extract_structured('I pick {"fields": 2, "fish": 1}!') == \
            {"fields": 2, "fish": 1}

    def test_first_integer_fallback(self):
        assert extract_structured("I choose 3 fields") == 3

    def test_negative_integer(self):
        assert extract_structured("delta is -2 today") == -2

    def test_nothing_extractable(self):
        with pytest.raises(SchemaError):
            extract_structured("maybe later")

    def test_none_rejected(self):
        with pytest.raises(SchemaError):
            extract_structured(None)

    def test_undecodable_opener_skipped(self):
        assert extract_structured('[oops {"fields": 2}') == {"fields": 2}

    def test_malformed_fence_falls_through(self):
        assert extract_structured("```\nnot json\n```\nanswer: 5") == 5


class TestShippedFixture:
    def test_fixture_matches_its_generator(self):
        """The shipped stub fixture is what tools/make_fixture.py builds, so
        its extraction fingerprint matches the packaged extraction prompt."""
        path = Path(__file__).resolve().parent.parent / "tools" / "make_fixture.py"
        spec = importlib.util.spec_from_file_location("make_fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        shipped = json.loads(module.FIXTURE.read_text(encoding="utf-8"))
        assert module.build_entries() == shipped
