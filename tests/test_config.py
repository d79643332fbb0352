from __future__ import annotations

import hashlib
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

import treeroute
from treeroute.backends import BackendRole
from treeroute.config import ENV_KEYS, EngineConfig, env_overrides
from treeroute.errors import ConfigError
from treeroute.routing import SemanticLevel


def test_defaults_validate():
    EngineConfig().validate()


def test_canonical_round_trip_is_byte_stable():
    config = EngineConfig()
    text = config.to_text()
    assert EngineConfig.from_text(text).to_text() == text


def test_round_trip_preserves_overrides():
    config = EngineConfig()
    config.apply(
        {
            "apm.hi": "0.8",
            "rrl.cap": "12",
            "rrl.near_dup_threshold": "0.9",
            "qci.lexicon.conjunction": "and, plus",
        }
    )
    clone = EngineConfig.from_text(config.to_text())
    assert clone.apm_hi == 0.8
    assert clone.rrl_cap == 12
    assert clone.rrl_near_dup_threshold == 0.9
    assert clone.qci_lexicon_conjunction == ("and", "plus")
    assert clone.to_text() == config.to_text()


def test_hash_is_stable_and_sensitive():
    a = EngineConfig()
    b = EngineConfig()
    assert a.config_hash() == b.config_hash()
    b.apply({"run.seed": "7"})
    assert a.config_hash() != b.config_hash()


def test_apply_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        EngineConfig().apply({"nope.nothing": "1"})


def test_apply_coerces_types():
    config = EngineConfig()
    config.apply(
        {
            "store.k": "16",
            "apm.lo": "0.2",
            "rrl.near_dup_threshold": " 0.9 ",
        }
    )
    assert config.store_k == 16
    assert config.apm_lo == 0.2
    assert config.rrl_near_dup_threshold == 0.9


def test_apply_bad_values_name_the_key():
    with pytest.raises(ConfigError, match="store.k"):
        EngineConfig().apply({"store.k": "many"})
    with pytest.raises(ConfigError, match="rrl.near_dup_threshold"):
        EngineConfig().apply({"rrl.near_dup_threshold": "high"})


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"qci.weights.wh": "0.9"}, "qci.weights"),
        ({"apm.lo": "0.8"}, "lo"),
        ({"rrl.cap": "3"}, "cap"),
        ({"qtc.tau_simple": "1.5"}, "tau_simple"),
        ({"qtc.fallback_level": "extreme"}, "fallback_level"),
        ({"store.dimension": "0"}, "store.dimension"),
        ({"tor.retry_decompose": "-1"}, "tor.retry_decompose"),
        ({"run.jobs": "0"}, "run.jobs"),
        ({"latency.base_ms": "-1"}, "latency.base_ms"),
    ],
)
def test_validate_rejects_bad_settings(overrides, match):
    config = EngineConfig()
    config.apply(overrides)
    with pytest.raises(ConfigError, match=match):
        config.validate()


def _out_of_bounds():
    """(key, value) pairs: every float key at NaN and at each infinity, and
    every declared bound exceeded by one step."""
    for f in fields(EngineConfig):
        key, lo, hi, choices = (f.metadata[name] for name in ("key", "lo", "hi", "choices"))
        if isinstance(f.default, float):
            for value in (math.nan, math.inf, -math.inf):
                yield key, value
        if lo is not None:
            yield key, math.nextafter(lo, -math.inf) if isinstance(lo, float) else lo - 1
        if hi is not None:
            yield key, math.nextafter(hi, math.inf) if isinstance(hi, float) else hi + 1
        if choices:
            yield key, "-".join(choices)


@pytest.mark.parametrize("key, value", list(_out_of_bounds()))
def test_validate_names_the_key_of_every_out_of_bounds_value(key, value):
    config = EngineConfig()
    config.apply({key: str(value)})
    with pytest.raises(ConfigError, match=re.escape(key)):
        config.validate()


def test_every_float_key_and_declared_bound_is_covered():
    cases = list(_out_of_bounds())
    float_keys = {key for key, value in cases if isinstance(value, float) and math.isnan(value)}
    assert len(float_keys) == 21
    assert {"qtc.tau_simple", "run.jobs", "qtc.fallback_level"} <= {
        key for key, _ in cases
    }


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"qtc.tau_simple": "1.5"}, "qtc.tau_simple: must be <= 1.0, got 1.5"),
        (
            {"backend.temperature.decomposer": "-1"},
            "backend.temperature.decomposer: must be >= 0.0, got -1.0",
        ),
        (
            {"qtc.fallback_level": "extreme"},
            "qtc.fallback_level: must be one of low, mid, high, got 'extreme'",
        ),
        ({"qci.weights.wh": "nan"}, "qci.weights.wh: must be a finite number, got nan"),
        ({"latency.base_ms": "inf"}, "latency.base_ms: must be a finite number, got inf"),
        ({"run.jobs": "0"}, "run.jobs: must be >= 1, got 0"),
        ({"rrl.score_floor": "1.5"}, "rrl.score_floor: must be in [0, 1], got 1.5"),
        ({"rrl.top_rank": "0"}, "rrl.top_rank: must be >= 1, got 0"),
        ({"rrl.cap": "3"}, "rrl.cap: must be >= rrl.top_rank (10), got 3"),
        ({"rrl.near_dup_threshold": "0"}, "rrl.near_dup_threshold: must be in (0, 1], got 0.0"),
        ({"qci.length_threshold": "0"}, "qci.length_threshold: must be > 0, got 0"),
        ({"qci.lexicon.wh": ""}, "qci.lexicon.wh: must be nonempty"),
        ({"qci.lexicon.sequence": ","}, "qci.lexicon.sequence: must be nonempty"),
        ({"apm.hi": "1.5"}, "apm.hi: must be in [apm.lo (0.35), 1], got 1.5"),
        ({"apm.lo": "0.8"}, "apm.hi: must be in [apm.lo (0.8), 1], got 0.7"),
        ({"apm.lo": "-0.1"}, "apm.lo: must be >= 0, got -0.1"),
        (
            {"stub.assessor_high": "0.1"},
            "stub.assessor_high: must be in [stub.assessor_low (0.35), 1], got 0.1",
        ),
        ({"stub.assessor_low": "-1"}, "stub.assessor_low: must be >= 0, got -1.0"),
    ],
)
def test_validate_messages(overrides, message):
    config = EngineConfig()
    config.apply(overrides)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert str(info.value) == message


def test_remote_backend_with_endpoint_validates():
    config = EngineConfig()
    config.apply({"backend.endpoint": "http://example.test/chat"})
    config.validate()


@pytest.mark.parametrize("key", ["backend.endpoint", "embed.endpoint"])
def test_an_endpoint_must_be_http_or_https(key):
    for endpoint in ("", "http://127.0.0.1:8000/v1", "HTTPS://example.test/embed"):
        config = EngineConfig()
        config.apply({key: endpoint})
        config.validate()
    for endpoint in ("file:///etc/passwd", "ftp://example.test/x", "data:,x", "example.test:80/x"):
        config = EngineConfig()
        config.apply({key: endpoint})
        with pytest.raises(ConfigError) as info:
            config.validate()
        assert str(info.value) == f"{key}: must be an http or https URL, got {endpoint!r}"
    for endpoint in ("http:x", "https://", "http:///chat", "http://:8000/chat"):
        config = EngineConfig()
        config.apply({key: endpoint})
        with pytest.raises(ConfigError) as info:
            config.validate()
        assert str(info.value) == f"{key}: must name a host, got {endpoint!r}"


def test_from_text_rejects_garbage():
    with pytest.raises(ConfigError, match="invalid config"):
        EngineConfig.from_text("this is not ini [")


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    config = EngineConfig.from_text(blocks[0])
    config.validate()
    assert config.qtc_tau_simple == 0.10
    assert (config.apm_hi, config.apm_lo, config.backend_timeout_ms) == (0.70, 0.35, 10_000)


def test_from_file(tmp_path):
    path = tmp_path / "engine.ini"
    config = EngineConfig()
    config.apply({"run.seed": "42"})
    path.write_text(config.to_text(), encoding="utf-8")
    assert EngineConfig.from_file(path).run_seed == 42


def test_from_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        EngineConfig.from_file(tmp_path / "absent.ini")


def test_from_file_invalid_utf8(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes("[run]\n# café\nseed = 1\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read config file"):
        EngineConfig.from_file(path)


def test_env_overrides():
    environ = {
        "TREEROUTE_BACKEND_ENDPOINT": "http://chat.test",
        "TREEROUTE_EMBED_MODEL": "embedder-v2",
        "UNRELATED": "ignored",
    }
    assert env_overrides(environ) == {
        "backend.endpoint": "http://chat.test",
        "embed.model": "embedder-v2",
    }
    assert set(ENV_KEYS) == {
        "TREEROUTE_BACKEND_ENDPOINT",
        "TREEROUTE_BACKEND_MODEL",
        "TREEROUTE_EMBED_ENDPOINT",
        "TREEROUTE_EMBED_MODEL",
    }


def test_derived_views_reflect_fields():
    config = EngineConfig()
    config.apply(
        {
            "apm.hi": "0.9",
            "apm.lo": "0.1",
            "apm.judge_temperature": "0.25",
            "qtc.fallback_level": "high",
            "rrl.top_rank": "5",
            "rrl.cap": "7",
            "rrl.near_dup_threshold": "0.9",
        }
    )
    assert config.gate_thresholds().hi == 0.9
    assert config.gate_thresholds().lo == 0.1
    assert config.temperatures()[BackendRole.JUDGE] == 0.25
    assert config.routing_rule().fallback_level is SemanticLevel.HIGH
    rule = config.selection_rule()
    assert (rule.top_rank, rule.cap, rule.near_dup_threshold) == (5, 7, 0.9)
    assert config.weights().wh == 0.25
    assert "and" in config.lexicons().conjunction_terms
    assert config.stub_behavior().judge_threshold == 0.5


def test_lexicon_override_reaches_stub_decomposer_terms():
    config = EngineConfig()
    config.apply({"qci.lexicon.conjunction": "plus"})
    assert config.stub_behavior().conjunction_terms == frozenset({"plus"})


def test_to_text_groups_by_section():
    text = EngineConfig().to_text()
    assert "[apm]\n" in text
    assert "[qci]\n" in text
    assert "weights.wh = 0.25\n" in text
    assert "hi = 0.7\n" in text
    # Sections arrive sorted.
    sections = [line for line in text.splitlines() if line.startswith("[")]
    assert sections == sorted(sections)


def test_default_config_text_is_pinned():
    # Defaults live on each section's class; moving one must not move the hash.
    text = EngineConfig().to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "7721aaa6dd4f8ef72ce39e58b819e6473a5f2990d80cc25fe2c4fce1eb62ec32"
    )


# key -> (raw non-default value, builder, field of the built object, expected value).
# The values are valid together, and distinct within each section.
SECTION_KEYS = {
    "qci.weights.wh": ("0.3", "weights", "wh", 0.3),
    "qci.weights.conjunction": ("0.1", "weights", "conjunction", 0.1),
    "qci.weights.comparison": ("0.25", "weights", "comparison", 0.25),
    "qci.weights.sequence": ("0.2", "weights", "sequence", 0.2),
    "qci.weights.length": ("0.15", "weights", "length", 0.15),
    "qci.length_threshold": ("12", "lexicons", "length_threshold", 12),
    "qci.lexicon.wh": ("who,how", "lexicons", "wh_terms", frozenset({"who", "how"})),
    "qci.lexicon.conjunction": ("plus", "lexicons", "conjunction_terms", frozenset({"plus"})),
    "qci.lexicon.comparison": ("vs", "lexicons", "comparison_terms", frozenset({"vs"})),
    "qci.lexicon.sequence": ("later", "lexicons", "sequence_terms", frozenset({"later"})),
    "qtc.tau_simple": ("0.4", "routing_rule", "tau_simple", 0.4),
    "qtc.assessor_snippets": ("5", "routing_rule", "assessor_snippets", 5),
    "qtc.fallback_level": ("high", "routing_rule", "fallback_level", SemanticLevel.HIGH),
    "apm.hi": ("0.8", "gate_thresholds", "hi", 0.8),
    "apm.lo": ("0.45", "gate_thresholds", "lo", 0.45),
    "rrl.near_dup_threshold": ("0.9", "selection_rule", "near_dup_threshold", 0.9),
    "rrl.top_rank": ("4", "selection_rule", "top_rank", 4),
    "rrl.score_floor": ("0.6", "selection_rule", "score_floor", 0.6),
    "rrl.cap": ("7", "selection_rule", "cap", 7),
    "stub.assessor_low": ("0.3", "stub_behavior", "assessor_low", 0.3),
    "stub.assessor_high": ("0.65", "stub_behavior", "assessor_high", 0.65),
    "stub.judge_threshold": ("0.55", "stub_behavior", "judge_threshold", 0.55),
    "latency.base_ms": ("1", "cost_model", "base_ms", 1.0),
    "latency.per_retrieval_ms": ("2", "cost_model", "per_retrieval_ms", 2.0),
    "latency.per_llm_call_ms": ("3", "cost_model", "per_llm_call_ms", 3.0),
}


def test_section_keys_cover_every_key_and_field():
    sections = ("qci.", "qtc.", "apm.hi", "apm.lo", "rrl.", "stub.", "latency.")
    keys = {f.metadata["key"] for f in fields(EngineConfig)}
    assert {key for key in keys if key.startswith(sections)} == set(SECTION_KEYS)
    config = EngineConfig()
    for builder in {builder for _, builder, _, _ in SECTION_KEYS.values()}:
        built = {f.name for f in fields(getattr(config, builder)())}
        covered = {name for _, b, name, _ in SECTION_KEYS.values() if b == builder}
        # The stub's decomposer terms come from qci.lexicon.conjunction.
        assert built - covered <= {"conjunction_terms"}, builder


@pytest.mark.parametrize("key", sorted(SECTION_KEYS))
def test_every_section_key_reaches_its_object(key):
    raw, builder, name, expected = SECTION_KEYS[key]
    config = EngineConfig()
    default = getattr(getattr(config, builder)(), name)
    config.apply({k: v for k, (v, *_) in SECTION_KEYS.items()})
    config.validate()
    assert expected != default
    assert getattr(getattr(config, builder)(), name) == expected


def test_every_section_object_is_exported_from_the_package():
    config = EngineConfig()
    for builder in {builder for _, builder, _, _ in SECTION_KEYS.values()}:
        section = type(getattr(config, builder)())
        assert getattr(treeroute, section.__name__, None) is section, builder
