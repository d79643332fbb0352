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
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .backends import BackendRole, CostModel, StubBehavior
from .embeddings import DEFAULT_DIMENSION
from .errors import ConfigError
from .pruning import GateThresholds
from .rerank import SelectionRule
from .routing import RoutingRule, SemanticLevel
from .signals import QciWeights, SignalLexicons
from .vectorstore import DEFAULT_SEARCH_K

ENV_PREFIX = "TREEROUTE_"

# Environment variables that may override config keys.
ENV_KEYS = {
    f"{ENV_PREFIX}BACKEND_ENDPOINT": "backend.endpoint",
    f"{ENV_PREFIX}BACKEND_MODEL": "backend.model",
    f"{ENV_PREFIX}EMBED_ENDPOINT": "embed.endpoint",
    f"{ENV_PREFIX}EMBED_MODEL": "embed.model",
}


def _opt(default: Any, key: str, *, lo=None, hi=None, choices: tuple[str, ...] = ()) -> Any:
    return field(default=default, metadata={"key": key, "lo": lo, "hi": hi, "choices": choices})


def _terms(terms: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(terms))


@dataclass
class EngineConfig:
    """All engine settings; field metadata carries the dotted key and its bounds."""

    # Complexity index
    qci_weight_wh: float = _opt(QciWeights.wh, "qci.weights.wh")
    qci_weight_conjunction: float = _opt(QciWeights.conjunction, "qci.weights.conjunction")
    qci_weight_comparison: float = _opt(QciWeights.comparison, "qci.weights.comparison")
    qci_weight_sequence: float = _opt(QciWeights.sequence, "qci.weights.sequence")
    qci_weight_length: float = _opt(QciWeights.length, "qci.weights.length")
    qci_length_threshold: int = _opt(SignalLexicons.length_threshold, "qci.length_threshold")
    qci_lexicon_wh: tuple[str, ...] = _opt(_terms(SignalLexicons.wh_terms), "qci.lexicon.wh")
    qci_lexicon_conjunction: tuple[str, ...] = _opt(
        _terms(SignalLexicons.conjunction_terms), "qci.lexicon.conjunction"
    )
    qci_lexicon_comparison: tuple[str, ...] = _opt(
        _terms(SignalLexicons.comparison_terms), "qci.lexicon.comparison"
    )
    qci_lexicon_sequence: tuple[str, ...] = _opt(
        _terms(SignalLexicons.sequence_terms), "qci.lexicon.sequence"
    )

    # Routing
    qtc_tau_simple: float = _opt(RoutingRule.tau_simple, "qtc.tau_simple", lo=0.0, hi=1.0)
    qtc_assessor_snippets: int = _opt(RoutingRule.assessor_snippets, "qtc.assessor_snippets", lo=0)
    qtc_fallback_level: str = _opt(
        RoutingRule.fallback_level.value,
        "qtc.fallback_level",
        choices=tuple(level.value for level in SemanticLevel),
    )

    # Vector store
    store_dimension: int = _opt(DEFAULT_DIMENSION, "store.dimension", lo=1)
    store_k: int = _opt(DEFAULT_SEARCH_K, "store.k", lo=1)

    # Embedding provider
    embed_endpoint: str = _opt("", "embed.endpoint")
    embed_model: str = _opt("", "embed.model")

    # Tree expansion
    tor_retry_decompose: int = _opt(1, "tor.retry_decompose", lo=0)

    # Pruning gate
    apm_hi: float = _opt(GateThresholds.hi, "apm.hi")
    apm_lo: float = _opt(GateThresholds.lo, "apm.lo")
    apm_judge_temperature: float = _opt(0.1, "apm.judge_temperature", lo=0.0)

    # Consolidation
    rrl_near_dup_threshold: float = _opt(SelectionRule.near_dup_threshold, "rrl.near_dup_threshold")
    rrl_top_rank: int = _opt(SelectionRule.top_rank, "rrl.top_rank")
    rrl_score_floor: float = _opt(SelectionRule.score_floor, "rrl.score_floor")
    rrl_cap: int = _opt(SelectionRule.cap, "rrl.cap")

    # Chat backend
    backend_endpoint: str = _opt("", "backend.endpoint")
    backend_model: str = _opt("", "backend.model")
    backend_timeout_ms: int = _opt(30_000, "backend.timeout_ms", lo=1)
    backend_prompt_dir: str = _opt("", "backend.prompt_dir")
    backend_temperature_decomposer: float = _opt(0.3, "backend.temperature.decomposer", lo=0.0)
    backend_temperature_assessor: float = _opt(0.0, "backend.temperature.assessor", lo=0.0)
    backend_temperature_reranker: float = _opt(0.0, "backend.temperature.reranker", lo=0.0)
    backend_temperature_classifier: float = _opt(0.0, "backend.temperature.classifier", lo=0.0)

    # Stub behavior
    stub_assessor_low: float = _opt(StubBehavior.assessor_low, "stub.assessor_low")
    stub_assessor_high: float = _opt(StubBehavior.assessor_high, "stub.assessor_high")
    stub_judge_threshold: float = _opt(StubBehavior.judge_threshold, "stub.judge_threshold")

    # Run control
    run_seed: int = _opt(0, "run.seed")
    run_jobs: int = _opt(1, "run.jobs", lo=1)

    # Synthetic latency model: the latency_ms that every trace records
    latency_base_ms: float = _opt(CostModel.base_ms, "latency.base_ms", lo=0.0)
    latency_per_retrieval_ms: float = _opt(
        CostModel.per_retrieval_ms, "latency.per_retrieval_ms", lo=0.0
    )
    latency_per_llm_call_ms: float = _opt(
        CostModel.per_llm_call_ms, "latency.per_llm_call_ms", lo=0.0
    )

    # -- derived views: one object per section ----------------------------

    def _section(self, cls: type, section: str, **given: Any) -> Any:
        """Build cls from the keys <section>.<field>; given supplies the other fields."""
        by_key = {f.metadata["key"]: getattr(self, f.name) for f in fields(self)}
        values = {f.name: by_key[f"{section}.{f.name}"] for f in fields(cls) if f.name not in given}
        return cls(**values, **given)

    def weights(self) -> QciWeights:
        return self._section(QciWeights, "qci.weights")

    def lexicons(self) -> SignalLexicons:
        return SignalLexicons(
            wh_terms=frozenset(self.qci_lexicon_wh),
            conjunction_terms=frozenset(self.qci_lexicon_conjunction),
            comparison_terms=frozenset(self.qci_lexicon_comparison),
            sequence_terms=frozenset(self.qci_lexicon_sequence),
            length_threshold=self.qci_length_threshold,
        )

    def gate_thresholds(self) -> GateThresholds:
        return self._section(GateThresholds, "apm")

    def selection_rule(self) -> SelectionRule:
        return self._section(SelectionRule, "rrl")

    def stub_behavior(self) -> StubBehavior:
        return self._section(
            StubBehavior, "stub", conjunction_terms=frozenset(self.qci_lexicon_conjunction)
        )

    def routing_rule(self) -> RoutingRule:
        return self._section(RoutingRule, "qtc", fallback_level=SemanticLevel(self.qtc_fallback_level))

    def cost_model(self) -> CostModel:
        return self._section(CostModel, "latency")

    def temperatures(self) -> dict[BackendRole, float]:
        return {
            BackendRole.DECOMPOSER: self.backend_temperature_decomposer,
            BackendRole.LEVEL_ASSESSOR: self.backend_temperature_assessor,
            BackendRole.JUDGE: self.apm_judge_temperature,
            BackendRole.RERANKER: self.backend_temperature_reranker,
            BackendRole.INTENT_CLASSIFIER: self.backend_temperature_classifier,
        }

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        for f in fields(self):
            key, value = f.metadata["key"], getattr(self, f.name)
            lo, hi, choices = f.metadata["lo"], f.metadata["hi"], f.metadata["choices"]
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key}: must be a finite number, got {value}")
            if lo is not None and value < lo:
                raise ConfigError(f"{key}: must be >= {lo}, got {value}")
            if hi is not None and value > hi:
                raise ConfigError(f"{key}: must be <= {hi}, got {value}")
            if choices and value not in choices:
                raise ConfigError(f"{key}: must be one of {', '.join(choices)}, got {value!r}")
        # Rules that relate several keys (apm.lo <= apm.hi) belong to the part built from them.
        try:
            self.weights()
            self.lexicons()
            self.gate_thresholds()
            self.selection_rule()
            self.stub_behavior()
        except ValueError as exc:
            raise ConfigError(str(exc))

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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        return cls.from_text(text)


def _format(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(value)
    return repr(value) if isinstance(value, float) else str(value)


def _coerce(key: str, raw: str, current: Any) -> Any:
    raw = raw.strip()
    try:
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
