"""Prompt building, backend client behavior, and the mock backend."""
import pytest

import repairkit.gen as gen
from repairkit.errors import (
    BackendError,
    BackendUnreachable,
    BadTemplate,
    InvalidRegion,
)
from repairkit.gen import (
    CandidatePatch,
    GenerationConfig,
    MockBackend,
    build_chat_prompt,
    request_candidates,
)
from repairkit.representations import (
    DEFAULT_MARKERS,
    DEFAULT_STOP_TOKENS,
    InputKind,
    Region,
    build_input,
)
from repairkit.syntax import SourceFunction

FN = SourceFunction.from_text(
    "int safeDiv(int a, int b) {\n    if (b == 0) return 0;\n    return a / b;\n}",
    "safeDiv",
)
REGION = Region(3, 3)


class TestPrompts:
    def test_ir3_prompt_has_one_fill_token(self):
        prompt = build_input(FN, REGION, InputKind.IR3)
        assert prompt.count(DEFAULT_MARKERS.fill_token) == 1

    def test_ir1_prompt_is_bare_function(self):
        assert build_input(FN, REGION, InputKind.IR1) == FN.text

    def test_invalid_region_raises(self):
        with pytest.raises(InvalidRegion):
            build_input(FN, Region(1, 99), InputKind.IR3)

    def test_prompts_never_contain_stop_tokens(self, roundtrip_triples):
        for triple in roundtrip_triples:
            for kind in (InputKind.IR3, InputKind.IR4):
                prompt = build_input(triple.buggy, triple.region, kind)
                assert not any(tok in prompt for tok in DEFAULT_STOP_TOKENS)

    def test_chat_prompt_concatenation(self):
        prompt = build_chat_prompt(FN, REGION, template="Fix: {code}")
        assert prompt == "Fix: " + build_input(FN, REGION, InputKind.IR4)

    def test_default_chat_template_instructs_chunk_for_fill(self):
        prompt = build_chat_prompt(FN, REGION)
        assert "generate the fixed code chunk" in prompt.lower()
        assert DEFAULT_MARKERS.fill_token in prompt

    def test_missing_placeholder_is_bad_template(self):
        with pytest.raises(BadTemplate):
            build_chat_prompt(FN, REGION, template="no placeholder here")


class TestMockBackend:
    def test_known_bug_returns_fixture(self):
        mock = MockBackend({"b1": ["x"]})
        mock.bind_prompt("b1", "the prompt")
        assert mock.complete("the prompt", 10, 64, []) == ["x"]

    def test_unknown_prompt_returns_empty(self):
        assert MockBackend({"b1": ["x"]}).complete("other", 10, 64, []) == []

    def test_n_truncates_fixture_list(self):
        mock = MockBackend({"b1": ["r0", "r1", "r2"]})
        mock.bind_prompt("b1", "p")
        assert mock.complete("p", 2, 64, []) == ["r0", "r1"]

    def test_loopback_server_speaks_wire_protocol(self):
        mock = MockBackend({"b1": ["first", "second"]})
        mock.bind_prompt("b1", "the prompt")
        url = mock.serve()
        try:
            config = GenerationConfig(backend=url, num_candidates=2, timeout=10)
            assert request_candidates(config, "the prompt") == ["first", "second"]
        finally:
            mock.close()


class TestRequestCandidates:
    def test_in_process_backend_order_preserved(self):
        mock = MockBackend({"b": [f"cand {i}" for i in range(10)]})
        mock.bind_prompt("b", "p")
        config = GenerationConfig(backend=mock)
        outputs = request_candidates(config, "p")
        assert outputs == [f"cand {i}" for i in range(10)]

    def test_shortfall_allowed(self):
        mock = MockBackend({"b": ["only one"]})
        mock.bind_prompt("b", "p")
        outputs = request_candidates(GenerationConfig(backend=mock, num_candidates=10), "p")
        assert len(outputs) == 1

    def test_num_candidates_caps_backend_excess(self):
        class Chatty:
            def complete(self, prompt, n, max_new_tokens, stop):
                return [str(i) for i in range(50)]

        outputs = request_candidates(GenerationConfig(backend=Chatty(), num_candidates=10), "p")
        assert len(outputs) == 10

    def test_unreachable_endpoint_after_retries(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(gen, "_sleep", sleeps.append)
        config = GenerationConfig(
            backend="http://127.0.0.1:9/", retries=3, timeout=0.2
        )
        with pytest.raises(BackendUnreachable):
            request_candidates(config, "p")
        assert sleeps == [0.5, 1.0, 2.0]  # exponential backoff, bounded retries

    def test_retry_then_success(self, monkeypatch):
        monkeypatch.setattr(gen, "_sleep", lambda s: None)

        class Flaky:
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, n, max_new_tokens, stop):
                self.calls += 1
                if self.calls < 3:
                    raise BackendUnreachable("warming up")
                return ["ok"]

        flaky = Flaky()
        outputs = request_candidates(GenerationConfig(backend=flaky, retries=3), "p")
        assert outputs == ["ok"] and flaky.calls == 3

    def test_http_error_surfaces_status(self, monkeypatch):
        monkeypatch.setattr(gen, "_sleep", lambda s: None)

        class Failing:
            def complete(self, prompt, n, max_new_tokens, stop):
                raise BackendError(503, "overloaded")

        with pytest.raises(BackendError) as err:
            request_candidates(GenerationConfig(backend=Failing(), retries=1), "p")
        assert err.value.status == 503

    def test_no_backend_configured(self):
        with pytest.raises(BackendUnreachable):
            request_candidates(GenerationConfig(), "p")

    def test_num_candidates_validated(self):
        with pytest.raises(ValueError):
            GenerationConfig(num_candidates=0)


class TestCandidatePatch:
    def test_exactly_one_outcome_field(self):
        CandidatePatch("b", 0, "raw", reconstructed="text")
        CandidatePatch("b", 0, "raw", reconstruct_error="MalformedOutput")
        with pytest.raises(ValueError):
            CandidatePatch("b", 0, "raw")
        with pytest.raises(ValueError):
            CandidatePatch("b", 0, "raw", reconstructed="x", reconstruct_error="y")
