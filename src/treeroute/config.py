"""Engine configuration.

Every tunable constant lives here under a dotted key, grouped into
sections in a flat INI-style file. Serialization is canonical (sorted
sections and keys, fixed value formatting), so loading a config and
writing it back is byte-stable and the config hash is reproducible.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .backends import BackendRole, StubBehavior
from .errors import ConfigError
from .pruning import GateThresholds
from .rerank import DedupPolicy, SelectionRule
from .routing import SemanticLevel
from .signals import (
    DEFAULT_COMPARISON_TERMS,
    DEFAULT_CONJUNCTION_TERMS,
    DEFAULT_SEQUENCE_TERMS,
    DEFAULT_WH_TERMS,
    QciWeights,
    SignalLexicons,
)

ENV_PREFIX = "TREEROUTE_"

# Environment variables that may override config keys.
ENV_KEYS = {
    f"{ENV_PREFIX}BACKEND_ENDPOINT": "backend.endpoint",
    f"{ENV_PREFIX}BACKEND_MODEL": "backend.model",
    f"{ENV_PREFIX}EMBED_ENDPOINT": "embed.endpoint",
    f"{ENV_PREFIX}EMBED_MODEL": "embed.model",
}


def _opt(default: Any, key: str) -> Any:
    return field(default=default, metadata={"key": key})


def _terms(terms: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(terms))


@dataclass
class EngineConfig:
    """All engine settings; field metadata carries the dotted config key."""

    # Complexity index
    qci_weight_wh: float = _opt(0.25, "qci.weights.wh")
    qci_weight_conjunction: float = _opt(0.20, "qci.weights.conjunction")
    qci_weight_comparison: float = _opt(0.20, "qci.weights.comparison")
    qci_weight_sequence: float = _opt(0.15, "qci.weights.sequence")
    qci_weight_length: float = _opt(0.20, "qci.weights.length")
    qci_length_threshold: int = _opt(25, "qci.length_threshold")
    qci_lexicon_wh: tuple[str, ...] = _opt(_terms(DEFAULT_WH_TERMS), "qci.lexicon.wh")
    qci_lexicon_conjunction: tuple[str, ...] = _opt(
        _terms(DEFAULT_CONJUNCTION_TERMS), "qci.lexicon.conjunction"
    )
    qci_lexicon_comparison: tuple[str, ...] = _opt(
        _terms(DEFAULT_COMPARISON_TERMS), "qci.lexicon.comparison"
    )
    qci_lexicon_sequence: tuple[str, ...] = _opt(
        _terms(DEFAULT_SEQUENCE_TERMS), "qci.lexicon.sequence"
    )

    # Routing
    qtc_tau_simple: float = _opt(0.10, "qtc.tau_simple")
    qtc_assessor_snippets: int = _opt(3, "qtc.assessor_snippets")
    qtc_fallback_level: str = _opt("mid", "qtc.fallback_level")

    # Vector store
    store_dimension: int = _opt(768, "store.dimension")
    store_k: int = _opt(32, "store.k")

    # Embedding provider
    embed_backend: str = _opt("stub", "embed.backend")
    embed_endpoint: str = _opt("", "embed.endpoint")
    embed_model: str = _opt("", "embed.model")

    # Tree expansion
    tor_retry_decompose: int = _opt(1, "tor.retry_decompose")

    # Pruning gate
    apm_hi: float = _opt(0.70, "apm.hi")
    apm_lo: float = _opt(0.35, "apm.lo")
    apm_judge_temperature: float = _opt(0.1, "apm.judge_temperature")

    # Consolidation
    rrl_near_dup_threshold: float = _opt(0.95, "rrl.near_dup_threshold")
    rrl_top_rank: int = _opt(10, "rrl.top_rank")
    rrl_score_floor: float = _opt(0.70, "rrl.score_floor")
    rrl_cap: int = _opt(10, "rrl.cap")
    rrl_floor_strict: bool = _opt(False, "rrl.floor_strict")

    # Chat backend
    backend_kind: str = _opt("stub", "backend.kind")
    backend_endpoint: str = _opt("", "backend.endpoint")
    backend_model: str = _opt("", "backend.model")
    backend_timeout_ms: int = _opt(30_000, "backend.timeout_ms")
    backend_max_in_flight: int = _opt(4, "backend.max_in_flight")
    backend_prompt_dir: str = _opt("", "backend.prompt_dir")
    backend_temperature_decomposer: float = _opt(0.3, "backend.temperature.decomposer")
    backend_temperature_assessor: float = _opt(0.0, "backend.temperature.assessor")
    backend_temperature_reranker: float = _opt(0.0, "backend.temperature.reranker")
    backend_temperature_classifier: float = _opt(0.0, "backend.temperature.classifier")

    # Stub behavior
    stub_assessor_low: float = _opt(0.35, "stub.assessor_low")
    stub_assessor_high: float = _opt(0.55, "stub.assessor_high")
    stub_judge_threshold: float = _opt(0.5, "stub.judge_threshold")

    # Run control
    run_seed: int = _opt(0, "run.seed")
    run_deterministic: bool = _opt(True, "run.deterministic")
    run_jobs: int = _opt(1, "run.jobs")

    # Synthetic latency model, used for traces in deterministic runs
    latency_base_ms: float = _opt(5.0, "latency.base_ms")
    latency_per_retrieval_ms: float = _opt(15.0, "latency.per_retrieval_ms")
    latency_per_llm_call_ms: float = _opt(300.0, "latency.per_llm_call_ms")

    # -- derived views ---------------------------------------------------

    def weights(self) -> QciWeights:
        return QciWeights(
            wh=self.qci_weight_wh,
            conjunction=self.qci_weight_conjunction,
            comparison=self.qci_weight_comparison,
            sequence=self.qci_weight_sequence,
            length=self.qci_weight_length,
        )

    def lexicons(self) -> SignalLexicons:
        return SignalLexicons(
            wh_terms=frozenset(self.qci_lexicon_wh),
            conjunction_terms=frozenset(self.qci_lexicon_conjunction),
            comparison_terms=frozenset(self.qci_lexicon_comparison),
            sequence_terms=frozenset(self.qci_lexicon_sequence),
            length_threshold=self.qci_length_threshold,
        )

    def gate_thresholds(self) -> GateThresholds:
        return GateThresholds(hi=self.apm_hi, lo=self.apm_lo)

    def selection_rule(self) -> SelectionRule:
        return SelectionRule(
            top_rank=self.rrl_top_rank,
            score_floor=self.rrl_score_floor,
            cap=self.rrl_cap,
            floor_strict=self.rrl_floor_strict,
        )

    def dedup_policy(self) -> DedupPolicy:
        return DedupPolicy(near_dup_threshold=self.rrl_near_dup_threshold)

    def stub_behavior(self) -> StubBehavior:
        return StubBehavior(
            assessor_low=self.stub_assessor_low,
            assessor_high=self.stub_assessor_high,
            judge_threshold=self.stub_judge_threshold,
            conjunction_terms=frozenset(self.qci_lexicon_conjunction),
        )

    def temperatures(self) -> dict[BackendRole, float]:
        return {
            BackendRole.DECOMPOSER: self.backend_temperature_decomposer,
            BackendRole.LEVEL_ASSESSOR: self.backend_temperature_assessor,
            BackendRole.JUDGE: self.apm_judge_temperature,
            BackendRole.RERANKER: self.backend_temperature_reranker,
            BackendRole.INTENT_CLASSIFIER: self.backend_temperature_classifier,
        }

    def fallback_level(self) -> SemanticLevel:
        return SemanticLevel(self.qtc_fallback_level)

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        try:
            self.weights().validate()
            self.lexicons()
            self.gate_thresholds()
            self.selection_rule()
            self.dedup_policy()
            self.stub_behavior()
        except ValueError as exc:
            raise ConfigError(str(exc))
        if not 0.0 <= self.qtc_tau_simple <= 1.0:
            raise ConfigError(f"qtc.tau_simple: must be in [0, 1], got {self.qtc_tau_simple}")
        if self.qtc_assessor_snippets < 0:
            raise ConfigError(
                f"qtc.assessor_snippets: must be >= 0, got {self.qtc_assessor_snippets}"
            )
        if self.qtc_fallback_level not in ("low", "mid", "high"):
            raise ConfigError(
                f"qtc.fallback_level: must be low, mid, or high, got {self.qtc_fallback_level!r}"
            )
        if self.store_dimension < 1:
            raise ConfigError(f"store.dimension: must be >= 1, got {self.store_dimension}")
        if self.store_k < 1:
            raise ConfigError(f"store.k: must be >= 1, got {self.store_k}")
        if self.embed_backend not in ("stub", "remote"):
            raise ConfigError(
                f"embed.backend: must be stub or remote, got {self.embed_backend!r}"
            )
        if self.embed_backend == "remote" and not self.embed_endpoint:
            raise ConfigError("embed.endpoint: required when embed.backend is remote")
        if self.tor_retry_decompose < 0:
            raise ConfigError(
                f"tor.retry_decompose: must be >= 0, got {self.tor_retry_decompose}"
            )
        if self.backend_kind not in ("stub", "remote"):
            raise ConfigError(f"backend.kind: must be stub or remote, got {self.backend_kind!r}")
        if self.backend_kind == "remote" and not self.backend_endpoint:
            raise ConfigError("backend.endpoint: required when backend.kind is remote")
        if self.backend_timeout_ms < 1:
            raise ConfigError(
                f"backend.timeout_ms: must be >= 1, got {self.backend_timeout_ms}"
            )
        if self.backend_max_in_flight < 1:
            raise ConfigError(
                f"backend.max_in_flight: must be >= 1, got {self.backend_max_in_flight}"
            )
        for role, temperature in self.temperatures().items():
            if temperature < 0:
                raise ConfigError(
                    f"temperature for {role.value}: must be >= 0, got {temperature}"
                )
        if self.run_jobs < 1:
            raise ConfigError(f"run.jobs: must be >= 1, got {self.run_jobs}")
        for name in ("latency_base_ms", "latency_per_retrieval_ms", "latency_per_llm_call_ms"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{_key_of(name)}: must be >= 0, got {getattr(self, name)}")

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical form: sorted sections, sorted keys, fixed formatting."""
        sections: dict[str, list[tuple[str, str]]] = {}
        for f in fields(self):
            key = f.metadata["key"]
            section, _, rest = key.partition(".")
            sections.setdefault(section, []).append((rest, _format(getattr(self, f.name))))
        out = io.StringIO()
        for section in sorted(sections):
            out.write(f"[{section}]\n")
            for rest, value in sorted(sections[section]):
                out.write(f"{rest} = {value}\n")
            out.write("\n")
        return out.getvalue()

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def apply(self, overrides: Mapping[str, str]) -> None:
        """Set dotted keys from string values, with type coercion."""
        by_key = {f.metadata["key"]: f for f in fields(self)}
        for key, raw in overrides.items():
            f = by_key.get(key)
            if f is None:
                raise ConfigError(f"unknown config key: {key}")
            setattr(self, f.name, _coerce(key, raw, getattr(self, f.name)))

    @classmethod
    def from_text(cls, text: str) -> "EngineConfig":
        parser = configparser.RawConfigParser()
        parser.optionxform = str  # keep keys and values as written
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"invalid config file: {exc}")
        config = cls()
        overrides: dict[str, str] = {}
        for section in parser.sections():
            for key, value in parser.items(section):
                overrides[f"{section}.{key}"] = value
        config.apply(overrides)
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        return cls.from_text(text)


def _key_of(field_name: str) -> str:
    for f in fields(EngineConfig):
        if f.name == field_name:
            return f.metadata["key"]
    raise KeyError(field_name)


def _format(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(value)
    return repr(value) if isinstance(value, float) else str(value)


def _coerce(key: str, raw: str, current: Any) -> Any:
    raw = raw.strip()
    try:
        if isinstance(current, bool):
            state = configparser.RawConfigParser.BOOLEAN_STATES.get(raw.lower())
            if state is None:
                raise ValueError(f"not a boolean: {raw!r}")
            return state
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        if isinstance(current, tuple):
            return tuple(t.strip().lower() for t in raw.split(",") if t.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}")


def env_overrides(environ: Mapping[str, str] | None = None) -> dict[str, str]:
    """Config overrides taken from the process environment."""
    environ = os.environ if environ is None else environ
    return {ENV_KEYS[name]: value for name, value in environ.items() if name in ENV_KEYS}
