import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from handover.errors import (
    EmptyCorpus,
    EndpointTimeout,
    HandoverError,
    NoObjectResolved,
    NonSuccessStatus,
    SchemaError,
    TemplateMismatch,
    TransportError,
    UnknownObject,
)
from handover.intent import (
    CatalogEntry,
    CorpusItem,
    EndpointConfig,
    EndpointResolver,
    EvalReport,
    IntentQuery,
    RuleResolver,
    TaskDescription,
    TierStats,
    ToolCatalog,
    build_prompt,
    evaluate_corpus,
    llm_infer,
    load_catalog,
    load_corpus,
    parse_task_description,
    render_task_description,
    resolve_intent_rules,
    save_catalog,
    save_corpus,
    tier_average,
)
from handover.synthetic import sample_corpus, synthetic_rest_keypoints


@pytest.fixture(scope="module")
def right_kp():
    return synthetic_rest_keypoints("right")


@pytest.fixture(scope="module")
def left_kp():
    return synthetic_rest_keypoints("left")


class TestIntentQuery:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_keypoints_rejected(self, right_kp, bad):
        kp = right_kp.copy()
        kp[1, 0] = bad
        with pytest.raises(SchemaError):
            IntentQuery(text="knife", keypoints=kp)

    def test_wrong_shape_rejected(self, right_kp):
        with pytest.raises(SchemaError):
            IntentQuery(text="knife", keypoints=right_kp[:20])

    def test_keypoints_are_a_read_only_copy(self, right_kp):
        kp = right_kp.copy()
        query = IntentQuery(text="knife", keypoints=kp)
        kp[0, 0] += 1.0
        assert query.keypoints[0, 0] == right_kp[0, 0]
        assert not query.keypoints.flags.writeable


class TestBuildPrompt:
    def test_contains_names_once_and_instruction(self, catalog):
        prompt = build_prompt(IntentQuery(text="I need a knife"), catalog)
        tools_line = next(l for l in prompt.splitlines() if l.startswith("Available tools:"))
        for name in catalog.names:
            assert tools_line.count(name) == 1
        assert "Pass the <tool> to <left|right> hand of human" in prompt

    def test_tools_line_has_only_catalog_names(self, catalog):
        prompt = build_prompt(IntentQuery(text="hello"), catalog)
        tools_line = next(l for l in prompt.splitlines() if l.startswith("Available tools:"))
        listed = tools_line.split(":", 1)[1].split(",")
        assert {item.strip() for item in listed} == set(catalog.names)

    def test_empty_text_rejected(self, catalog):
        with pytest.raises(HandoverError):
            build_prompt(IntentQuery(text="   "), catalog)

    def test_deterministic(self, catalog):
        q = IntentQuery(text="I need a knife", image_ref="img-1")
        assert build_prompt(q, catalog) == build_prompt(q, catalog)


class TestParse:
    def test_templated_sentence(self, catalog):
        task = parse_task_description(
            "Pass the game controller to right hand of human", catalog
        )
        assert task == TaskDescription("game controller", "right")

    def test_case_and_punctuation_tolerance(self, catalog):
        task = parse_task_description("  pass the Knife to LEFT hand of human. ", catalog)
        assert task == TaskDescription("knife", "left")

    def test_synonym_is_canonicalized(self, catalog):
        task = parse_task_description("Pass the gamepad to left hand of human", catalog)
        assert task.object_name == "game controller"

    def test_non_template_rejected(self, catalog):
        with pytest.raises(TemplateMismatch):
            parse_task_description("Give me the knife", catalog)

    def test_unknown_object_rejected(self, catalog):
        with pytest.raises(UnknownObject):
            parse_task_description("Pass the banana to left hand of human", catalog)

    def test_round_trip_for_all_catalog_pairs(self, catalog):
        for name in catalog.names:
            for hand in ("left", "right"):
                task = TaskDescription(name, hand)
                assert parse_task_description(render_task_description(task), catalog) == task

    @given(
        st.sampled_from(["knife", "scissors", "hammer"]),
        st.sampled_from(["left", "right"]),
        st.text(alphabet=" \t", max_size=3),
        st.booleans(),
        st.booleans(),
    )
    def test_round_trip_with_noise(self, name, hand, pad, upper, period):
        catalog = ToolCatalog(
            (CatalogEntry("knife"), CatalogEntry("scissors"), CatalogEntry("hammer"))
        )
        sentence = render_task_description(TaskDescription(name, hand))
        if upper:
            sentence = sentence.upper()
        if period:
            sentence += "."
        assert parse_task_description(pad + sentence + pad, catalog) == TaskDescription(
            name, hand
        )


class TestRuleResolver:
    def test_exact_name(self, catalog, right_kp):
        task = resolve_intent_rules(
            IntentQuery(text="I need a game controller", keypoints=right_kp), catalog
        )
        assert task == TaskDescription("game controller", "right")

    def test_use_case_lookup(self, catalog, left_kp):
        task = resolve_intent_rules(
            IntentQuery(text="I want to play games now", keypoints=left_kp), catalog
        )
        assert task == TaskDescription("game controller", "left")

    def test_no_match(self, catalog, right_kp):
        with pytest.raises(NoObjectResolved):
            resolve_intent_rules(IntentQuery(text="hello", keypoints=right_kp), catalog)

    def test_needs_hand_source(self, catalog):
        with pytest.raises(HandoverError):
            resolve_intent_rules(IntentQuery(text="I need a knife"), catalog)

    def test_explicit_handedness_wins(self, catalog):
        task = resolve_intent_rules(
            IntentQuery(text="I need a knife", handedness="left"), catalog
        )
        assert task.handedness == "left"

    def test_name_beats_synonym_beats_use_case(self, right_kp):
        catalog = ToolCatalog(
            (
                CatalogEntry("saw", use_cases=("cut the plank",)),
                CatalogEntry("plank cutter", synonyms=("cutter",)),
            )
        )
        by_use = resolve_intent_rules(
            IntentQuery(text="help me cut the plank", keypoints=right_kp), catalog
        )
        assert by_use.object_name == "saw"
        by_synonym = resolve_intent_rules(
            IntentQuery(text="the cutter, to cut the plank", keypoints=right_kp), catalog
        )
        assert by_synonym.object_name == "plank cutter"
        by_name = resolve_intent_rules(
            IntentQuery(text="pass the saw and the cutter", keypoints=right_kp), catalog
        )
        assert by_name.object_name == "saw"

    def test_word_boundaries_respected(self, right_kp):
        catalog = ToolCatalog((CatalogEntry("pen"), CatalogEntry("pencil")))
        task = resolve_intent_rules(
            IntentQuery(text="I need a pencil", keypoints=right_kp), catalog
        )
        assert task.object_name == "pencil"

    def test_tie_breaks_to_catalog_order(self, right_kp):
        catalog = ToolCatalog(
            (CatalogEntry("alpha tool"), CatalogEntry("beta tool"))
        )
        task = resolve_intent_rules(
            IntentQuery(text="alpha tool or beta tool?", keypoints=right_kp), catalog
        )
        assert task.object_name == "alpha tool"

    def test_deterministic(self, catalog, right_kp):
        q = IntentQuery(text="I need a knife", keypoints=right_kp)
        assert resolve_intent_rules(q, catalog) == resolve_intent_rules(q, catalog)


# --- endpoint client -------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        try:
            self._respond()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up (timeout test)

    def _respond(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        if self.path == "/slow":
            time.sleep(1.0)
        if self.path == "/error":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        if self.path == "/malformed":
            body = b'{"unexpected": true}'
        else:
            body = json.dumps(
                {
                    "choices": [
                        {"message": {"content": "Pass the knife to left hand of human"}}
                    ]
                }
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def mock_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


class TestEndpointClient:
    def test_returns_text_verbatim(self, mock_server):
        config = EndpointConfig(base_url=f"{mock_server}/ok", timeout_s=5.0, retries=0)
        assert llm_infer(config, "prompt") == "Pass the knife to left hand of human"

    def test_image_attachment_accepted(self, mock_server):
        config = EndpointConfig(base_url=f"{mock_server}/ok", timeout_s=5.0, retries=0)
        assert "knife" in llm_infer(config, "prompt", image_bytes=b"\x89PNG fake")

    def test_http_error_status(self, mock_server):
        config = EndpointConfig(base_url=f"{mock_server}/error", timeout_s=5.0, retries=0)
        with pytest.raises(NonSuccessStatus) as err:
            llm_infer(config, "prompt")
        assert err.value.status == 500

    def test_timeout(self, mock_server):
        config = EndpointConfig(base_url=f"{mock_server}/slow", timeout_s=0.2, retries=0)
        with pytest.raises(EndpointTimeout):
            llm_infer(config, "prompt")

    def test_unreachable(self):
        config = EndpointConfig(base_url="http://127.0.0.1:9/ok", timeout_s=0.5, retries=0)
        with pytest.raises(TransportError):
            llm_infer(config, "prompt")

    def test_malformed_payload(self, mock_server):
        config = EndpointConfig(base_url=f"{mock_server}/malformed", timeout_s=5.0, retries=0)
        with pytest.raises(TransportError):
            llm_infer(config, "prompt")

    def test_endpoint_resolver_round_trip(self, mock_server, catalog):
        resolver = EndpointResolver(
            catalog, EndpointConfig(base_url=f"{mock_server}/ok", timeout_s=5.0, retries=0)
        )
        item = CorpusItem(
            text="anything", tier="clear", truth=TaskDescription("knife", "left")
        )
        assert resolver(item) == TaskDescription("knife", "left")

    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("HANDOVER_ENDPOINT_URL", "http://example.invalid/v1")
        monkeypatch.setenv("HANDOVER_ENDPOINT_TOKEN", "secret")
        config = EndpointConfig.from_env()
        assert config.base_url == "http://example.invalid/v1"
        assert config.api_token == "secret"
        monkeypatch.delenv("HANDOVER_ENDPOINT_URL")
        with pytest.raises(HandoverError):
            EndpointConfig.from_env()

    def test_config_from_env_reads_settings(self, monkeypatch):
        for name in ("URL", "TOKEN", "MODEL"):
            monkeypatch.delenv(f"HANDOVER_ENDPOINT_{name}", raising=False)
        settings = {"base_url": "http://s", "timeout_s": "5", "retries": "0", "api_token": "t"}
        config = EndpointConfig.from_env(settings, model=None, timeout_s=None)
        assert (config.base_url, config.model, config.api_token) == ("http://s", "default", "t")
        assert config.timeout_s == 5.0 and isinstance(config.timeout_s, float)
        assert config.retries == 0 and isinstance(config.retries, int)
        assert EndpointConfig.from_env(settings, retries=2, timeout_s=1).retries == 2
        monkeypatch.setenv("HANDOVER_ENDPOINT_TOKEN", "")
        assert EndpointConfig.from_env(settings).api_token == "t"


# --- evaluation harness ----------------------------------------------------------

def _mini_catalog():
    return ToolCatalog((CatalogEntry("knife"), CatalogEntry("fork")))


def _item(text, tier, obj, hand, kp):
    return CorpusItem(text=text, tier=tier, truth=TaskDescription(obj, hand), keypoints=kp)


class TestEvaluate:
    def test_all_correct_gives_100(self, right_kp):
        catalog = _mini_catalog()
        corpus = [
            _item("I need a knife", t, "knife", "right", right_kp)
            for t in ("clear", "foggy", "fuzzy")
        ]
        report = evaluate_corpus(corpus, RuleResolver(catalog), catalog)
        for stats in report.tiers.values():
            assert stats.accuracy == 100.0
        assert report.average_accuracy == 100.0

    def test_correct_object_wrong_hand_fails(self, right_kp, left_kp):
        catalog = _mini_catalog()
        corpus = [_item("I need a knife", "clear", "knife", "left", right_kp)]
        report = evaluate_corpus(corpus, RuleResolver(catalog), catalog)
        assert report.tiers["clear"].passes == 0
        assert not report.items[0].passed
        assert report.items[0].resolved.object_name == "knife"

    def test_resolver_error_counts_as_failure(self, right_kp):
        catalog = _mini_catalog()
        corpus = [_item("unintelligible", "fuzzy", "knife", "right", right_kp)]
        report = evaluate_corpus(corpus, RuleResolver(catalog), catalog)
        assert report.tiers["fuzzy"].passes == 0
        assert "NoObjectResolved" in report.items[0].error

    def test_average_is_unweighted_tier_mean(self, right_kp, left_kp):
        catalog = _mini_catalog()
        corpus = [
            _item("I need a knife", "clear", "knife", "right", right_kp),
            _item("I need a knife", "clear", "knife", "right", right_kp),
            _item("I need a fork", "clear", "knife", "right", right_kp),  # object miss
            _item("I need a knife", "foggy", "knife", "right", right_kp),
            _item("nothing here", "foggy", "knife", "right", right_kp),
        ]
        report = evaluate_corpus(corpus, RuleResolver(catalog), catalog)
        clear = report.tiers["clear"].accuracy
        foggy = report.tiers["foggy"].accuracy
        assert clear == pytest.approx(200.0 / 3.0)
        assert foggy == pytest.approx(50.0)
        assert report.average_accuracy == pytest.approx((clear + foggy) / 2.0, abs=1e-12)
        assert report.missing_tiers == ("fuzzy",)

    def test_reported_average_matches_published_arithmetic(self):
        assert tier_average([50.11, 40.51, 42.09]) == pytest.approx(44.24, abs=0.005)

    def test_empty_corpus_rejected(self):
        catalog = _mini_catalog()
        with pytest.raises(EmptyCorpus):
            evaluate_corpus([], RuleResolver(catalog), catalog)
        with pytest.raises(EmptyCorpus):
            tier_average([])

    def test_truth_must_be_in_catalog(self, right_kp):
        catalog = _mini_catalog()
        corpus = [_item("x", "clear", "banana", "right", right_kp)]
        with pytest.raises(UnknownObject):
            evaluate_corpus(corpus, RuleResolver(catalog), catalog)

    def test_csv_layout(self, right_kp):
        catalog = _mini_catalog()
        corpus = [
            _item("I need a knife", "clear", "knife", "right", right_kp),
            _item("I need a fork", "fuzzy", "fork", "right", right_kp),
        ]
        report = evaluate_corpus(corpus, RuleResolver(catalog), catalog)
        lines = report.to_csv_text().strip().splitlines()
        assert lines[0] == "tier,items,passes,accuracy"
        assert lines[-1].startswith("average,2,2,")

    def test_sample_corpus_round_trip_and_tiers(self, catalog, tmp_path):
        corpus = sample_corpus(catalog)
        assert {item.tier for item in corpus} == {"clear", "foggy", "fuzzy"}
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert len(loaded) == len(corpus)
        assert loaded[0].text == corpus[0].text
        assert np.allclose(loaded[0].keypoints, corpus[0].keypoints)

    def test_json_report_shape(self, right_kp):
        catalog = _mini_catalog()
        corpus = [_item("I need a knife", "clear", "knife", "right", right_kp)]
        doc = evaluate_corpus(corpus, RuleResolver(catalog), catalog).to_json_dict()
        assert doc["tiers"]["clear"]["accuracy"] == 100.0
        assert doc["items"][0]["resolved"] == {"object": "knife", "hand": "right"}


class TestCatalogFiles:
    def test_round_trip(self, catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        loaded = load_catalog(path)
        assert loaded.names == catalog.names

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            ToolCatalog((CatalogEntry("knife"), CatalogEntry("Knife")))

    def test_rejects_bad_corpus_record(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{"text": "x"}]))
        with pytest.raises(SchemaError):
            load_corpus(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_corpus_keypoints(self, tmp_path, right_kp, bad):
        kp = right_kp.tolist()
        kp[1][2] = bad
        record = {"text": "knife", "tier": "clear", "truth": {"object": "knife", "hand": "right"}}
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([dict(record, keypoints=kp)]))
        with pytest.raises(SchemaError):
            load_corpus(path)

    @pytest.mark.parametrize(
        "record",
        [{"object": 5, "hand": "right"}, {"object": " ", "hand": "left"}, ["knife", "right"]],
        ids=["number", "blank", "not-object"],
    )
    def test_task_record_needs_a_string_object(self, record):
        with pytest.raises(SchemaError):
            TaskDescription.from_dict(record)

    def test_rejects_non_string_catalog_name(self):
        with pytest.raises(SchemaError):
            ToolCatalog.from_json_dict([{"name": "knife"}, {"name": ["fork"]}])

    def test_report_dataclasses(self):
        stats = TierStats(items=4, passes=1)
        assert stats.accuracy == 25.0
        report = EvalReport(tiers={"clear": stats}, items=())
        assert report.average_accuracy == 25.0
