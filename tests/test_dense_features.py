"""Word-vector pooling, precomputed embeddings, and language fallback."""

import numpy as np
import pytest

from polyemo.dense_features import (
    DEFAULT_PROMPT_TEMPLATE,
    EmbeddingTable,
    FallbackPolicy,
    LlmBackendConfig,
    embed_documents,
    http_transport,
    load_precomputed_embeddings,
    load_word_vectors,
    parse_reply,
    render_prompt,
    resolve_language,
)
from polyemo.errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    ResolutionError,
    TransportError,
)


def write_vectors(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadWordVectors:
    def test_with_header(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "2 3\na 1 0 0\nb 0 1 0\n")
        table = load_word_vectors(p)
        assert table.dimension == 3
        assert sorted(table.vectors) == ["a", "b"]
        np.testing.assert_array_equal(table.vectors["a"], [1.0, 0.0, 0.0])

    def test_without_header(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1.5 -2\nb 0 4\n")
        table = load_word_vectors(p)
        assert table.dimension == 2
        np.testing.assert_array_equal(table.vectors["a"], [1.5, -2.0])

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(FormatError, match="line 3"):
            load_word_vectors(p)

    def test_non_numeric_value(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1 oops\n")
        with pytest.raises(FormatError, match="line 1"):
            load_word_vectors(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value(self, tmp_path, value):
        p = write_vectors(tmp_path / "v.vec", f"a 1 2\nb {value} 1\n")
        with pytest.raises(FormatError, match=r"v\.vec: line 2: non-finite"):
            load_word_vectors(p)

    def test_duplicate_token_overwrites(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1 1\na 2 2\n")
        np.testing.assert_array_equal(load_word_vectors(p).vectors["a"], [2.0, 2.0])

    def test_empty_file(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "")
        with pytest.raises(FormatError, match="no vector entries"):
            load_word_vectors(p)

    def test_language_tag_kept(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1 2\n")
        assert load_word_vectors(p, language="swa").language == "swa"


class TestEmbedDocuments:
    def table(self):
        return EmbeddingTable(
            dimension=2,
            vectors={"a": np.array([1.0, 2.0]), "b": np.array([3.0, 1.0])},
        )

    def test_single_token(self):
        m, report = embed_documents([["a"]], self.table())
        np.testing.assert_array_equal(m, [[1.0, 2.0]])
        assert report.n_oov_tokens == 0

    def test_mean_pooling(self):
        m, _ = embed_documents([["a", "b"]], self.table())
        np.testing.assert_allclose(m, [[2.0, 1.5]])

    def test_all_oov_is_zero_row(self):
        m, report = embed_documents([["z", "q"]], self.table())
        np.testing.assert_array_equal(m, [[0.0, 0.0]])
        assert report.n_fully_oov == 1
        assert report.n_oov_tokens == 2
        assert report.n_tokens == 2

    def test_oov_tokens_excluded_from_mean(self):
        m, report = embed_documents([["a", "zzz"]], self.table())
        np.testing.assert_array_equal(m, [[1.0, 2.0]])
        assert report.n_oov_tokens == 1

    def test_repeated_token_all_same_vector(self):
        # pooling is linear: identical tokens pool to their own vector
        m, _ = embed_documents([["b", "b", "b"]], self.table())
        np.testing.assert_allclose(m, [[3.0, 1.0]])

    def test_permutation_invariance(self, rng):
        table = EmbeddingTable(
            dimension=3,
            vectors={f"t{i}": rng.normal(size=3) for i in range(10)},
        )
        doc = [f"t{i}" for i in range(10)]
        m1, _ = embed_documents([doc], table)
        m2, _ = embed_documents([list(reversed(doc))], table)
        np.testing.assert_allclose(m1, m2, atol=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            embed_documents([["a"]], EmbeddingTable(dimension=2, vectors={}))

    def test_report_totals(self):
        docs = [["a"], ["z"], ["a", "b", "q"]]
        _, report = embed_documents(docs, self.table())
        assert report.n_documents == 3
        assert report.n_tokens == 5
        assert report.n_oov_tokens == 2
        assert report.n_fully_oov == 1


class TestPrecomputedEmbeddings:
    def test_csv_with_header(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1,v2\nd1,1,2\nd2,3,4\n")
        m = load_precomputed_embeddings(p, ["d1", "d2"])
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_alignment_follows_requested_order(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1\nd1,1\nd2,2\n")
        m = load_precomputed_embeddings(p, ["d2", "d1"])
        np.testing.assert_array_equal(m, [[2.0], [1.0]])

    def test_text_format(self, tmp_path):
        p = write_vectors(tmp_path / "e.vec", "2 2\nd1 1 2\nd2 3 4\n")
        m = load_precomputed_embeddings(p, ["d1", "d2"])
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_id_named(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1\nd1,1\n")
        with pytest.raises(AlignmentError, match="'d9'"):
            load_precomputed_embeddings(p, ["d1", "d9"])

    def test_duplicate_id(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1\nd1,1\nd1,2\n")
        with pytest.raises(AlignmentError, match="duplicate"):
            load_precomputed_embeddings(p, ["d1"])

    def test_extra_ids_ignored(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1\nd1,1\nd2,2\nd3,3\n")
        m = load_precomputed_embeddings(p, ["d2"])
        np.testing.assert_array_equal(m, [[2.0]])

    def test_non_finite_value(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1,v2\nd1,1,2\nd2,nan,4\n")
        with pytest.raises(FormatError, match=r"e\.csv: line 3: non-finite"):
            load_precomputed_embeddings(p, ["d1", "d2"])

    def test_ragged_rows(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1,v2\nd1,1,2\nd2,3\n")
        with pytest.raises(FormatError, match="line 3"):
            load_precomputed_embeddings(p, ["d1", "d2"])


class TestPromptRendering:
    def backend(self):
        return LlmBackendConfig(endpoint="http://localhost/x", model="m")

    def test_both_substitutions_present(self):
        prompt = render_prompt(self.backend(), ["English", "Amharic"], "Oromo")
        assert "English, Amharic" in prompt
        assert "Oromo" in prompt
        assert prompt == DEFAULT_PROMPT_TEMPLATE.format(
            known_languages="English, Amharic", given_language="Oromo"
        )

    def test_deterministic(self):
        a = render_prompt(self.backend(), ["A", "B"], "C")
        b = render_prompt(self.backend(), ["A", "B"], "C")
        assert a == b

    def test_empty_known_list(self):
        with pytest.raises(ConfigError):
            render_prompt(self.backend(), [], "Oromo")

    def test_template_placeholder_validation(self):
        with pytest.raises(ConfigError, match="known_languages"):
            LlmBackendConfig(endpoint="e", model="m", prompt_template="{given_language}")
        with pytest.raises(ConfigError):
            LlmBackendConfig(
                endpoint="e",
                model="m",
                prompt_template="{known_languages} {known_languages} {given_language}",
            )


class TestParseReply:
    def policy(self, **kw):
        defaults = dict(
            supported_languages=("am", "en"),
            display_names={"am": "Amharic", "en": "English"},
        )
        defaults.update(kw)
        return FallbackPolicy(**defaults)

    def test_single_name(self):
        reply = "The most similar language is Amharic."
        assert parse_reply(reply, self.policy()) == "am"

    def test_case_insensitive(self):
        assert parse_reply("AMHARIC, clearly", self.policy()) == "am"

    def test_earliest_position_wins(self):
        assert parse_reply("English, though Amharic is close", self.policy()) == "en"

    def test_longer_name_wins_at_same_position(self):
        policy = FallbackPolicy(
            supported_languages=("x", "y"),
            display_names={"x": "Mara", "y": "Marathi"},
        )
        assert parse_reply("Marathi is closest", policy) == "y"

    def test_no_name_raises_with_reply(self):
        with pytest.raises(ResolutionError, match="cannot tell"):
            parse_reply("cannot tell", self.policy())


class CannedTransport:
    """Transport double returning a fixed reply and counting invocations."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = 0
        self.prompts = []

    def __call__(self, config, prompt):
        self.calls += 1
        self.prompts.append(prompt)
        return self.reply


class TestResolveLanguage:
    def backend(self):
        return LlmBackendConfig(endpoint="http://localhost/x", model="m")

    def test_native(self):
        policy = FallbackPolicy(supported_languages=("ru", "en"))
        assert resolve_language("ru", policy) == ("ru", "native")

    def test_static_map(self):
        policy = FallbackPolicy(
            supported_languages=("am",), static_map={"om": "am"}
        )
        assert resolve_language("om", policy) == ("am", "static")

    def test_static_map_to_unsupported_rejected(self):
        with pytest.raises(ConfigError, match="unsupported"):
            FallbackPolicy(supported_languages=("am",), static_map={"om": "xx"})

    def test_malformed_cache_line_names_line(self, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_text("xx\tam\nom am\n", encoding="utf-8")
        policy = FallbackPolicy(
            supported_languages=("am",), llm_backend=self.backend(), cache_path=str(cache)
        )
        with pytest.raises(FormatError, match=r"cache\.tsv: line 2"):
            resolve_language("om", policy, CannedTransport("Amharic"))

    def test_llm_resolution_and_cache(self, tmp_path):
        transport = CannedTransport("The most similar language is Amharic.")
        policy = FallbackPolicy(
            supported_languages=("am", "en"),
            display_names={"am": "Amharic", "en": "English", "om": "Oromo"},
            llm_backend=self.backend(),
            cache_path=str(tmp_path / "cache.tsv"),
        )
        assert resolve_language("om", policy, transport) == ("am", "llm")
        assert transport.calls == 1
        assert "Oromo" in transport.prompts[0]
        assert "Amharic, English" in transport.prompts[0]
        # second resolution is served from the cache: no further transport use
        assert resolve_language("om", policy, transport) == ("am", "llm")
        assert transport.calls == 1
        cache = (tmp_path / "cache.tsv").read_text(encoding="utf-8")
        assert cache == "om\tam\n"

    def test_cache_keeps_earlier_entries(self, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_text("xx\tam\n", encoding="utf-8")
        policy = FallbackPolicy(
            supported_languages=("am",), llm_backend=self.backend(), cache_path=str(cache)
        )
        assert resolve_language("om", policy, CannedTransport("Amharic")) == ("am", "llm")
        assert cache.read_text(encoding="utf-8") == "xx\tam\nom\tam\n"

    def test_failed_cache_write_keeps_previous_cache(self, tmp_path, fill_disk):
        cache = tmp_path / "cache.tsv"
        cache.write_text("xx\tam\n", encoding="utf-8")
        policy = FallbackPolicy(
            supported_languages=("am",), llm_backend=self.backend(), cache_path=str(cache)
        )
        fill_disk()
        with pytest.raises(OSError, match="no space"):
            resolve_language("om", policy, CannedTransport("Amharic"))
        assert cache.read_text(encoding="utf-8") == "xx\tam\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_llm_without_cache_queries_each_time(self):
        transport = CannedTransport("English")
        policy = FallbackPolicy(
            supported_languages=("en",),
            display_names={"en": "English"},
            llm_backend=self.backend(),
        )
        resolve_language("zz", policy, transport)
        resolve_language("zz", policy, transport)
        assert transport.calls == 2

    def test_no_route_raises(self):
        policy = FallbackPolicy(supported_languages=("en",))
        with pytest.raises(ResolutionError, match="'xx'"):
            resolve_language("xx", policy)

    def test_static_map_preferred_over_backend(self):
        transport = CannedTransport("English")
        policy = FallbackPolicy(
            supported_languages=("en", "am"),
            static_map={"om": "am"},
            llm_backend=self.backend(),
        )
        assert resolve_language("om", policy, transport) == ("am", "static")
        assert transport.calls == 0


class FakeResponse:
    def __init__(self, body, status=200):
        self.body = body
        self.status = status

    def raise_for_status(self):
        import requests

        if self.status >= 400:
            raise requests.HTTPError(f"status {self.status}")

    def json(self):
        return self.body


class TestHttpTransport:
    def config(self):
        return LlmBackendConfig(endpoint="http://example.invalid/v1/chat", model="tiny")

    def test_payload_shape_and_reply_extraction(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, json=json, headers=headers, timeout=timeout)
            return FakeResponse(
                {"choices": [{"message": {"content": "Amharic"}}]}
            )

        import requests

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setenv("EMO_LLM_API_KEY", "sekrit")
        reply = http_transport(self.config(), "which?")
        assert reply == "Amharic"
        assert seen["url"] == "http://example.invalid/v1/chat"
        assert seen["json"] == {
            "model": "tiny",
            "messages": [{"role": "user", "content": "which?"}],
        }
        assert seen["headers"]["Authorization"] == "Bearer sekrit"
        assert seen["timeout"] == 30.0

    def test_endpoint_env_override(self, monkeypatch):
        seen = {}

        def fake_post(url, **kw):
            seen["url"] = url
            return FakeResponse({"choices": [{"message": {"content": "x"}}]})

        import requests

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setenv("EMO_LLM_ENDPOINT", "http://other.invalid/chat")
        http_transport(self.config(), "p")
        assert seen["url"] == "http://other.invalid/chat"

    def test_http_error_becomes_transport_error(self, monkeypatch):
        import requests

        monkeypatch.setattr(
            requests, "post", lambda *a, **k: FakeResponse({}, status=500)
        )
        with pytest.raises(TransportError, match="request failed"):
            http_transport(self.config(), "p")

    def test_malformed_body(self, monkeypatch):
        import requests

        monkeypatch.setattr(
            requests, "post", lambda *a, **k: FakeResponse({"unexpected": True})
        )
        with pytest.raises(TransportError, match="malformed"):
            http_transport(self.config(), "p")
