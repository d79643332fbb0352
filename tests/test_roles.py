from __future__ import annotations

import math
import tempfile
from importlib import resources
from pathlib import Path
from string import Template

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from treeroute import backends, roles
from treeroute.backends import (
    MAX_OUTPUT_TOKENS,
    BackendRole,
    RemoteChatBackend,
    StubChatBackend,
)
from treeroute.config import EngineConfig
from treeroute.errors import BackendError, ConfigError, DecompositionError
from treeroute.pipeline import build_engine
from treeroute.rerank import global_rescore
from treeroute.roles import (
    ROLE_FIELDS,
    ParseError,
    PromptLibrary,
    RoleRunner,
    parse_decomposition,
    parse_intents,
    parse_level,
    parse_scores,
    parse_verdict,
)
from treeroute.routing import SemanticLevel
from treeroute.vectorstore import Passage, ScoredPassage


def _sp(pid: str, text: str, score: float, labels=()) -> ScoredPassage:
    return ScoredPassage(
        passage=Passage(id=pid, text=text, intent_labels=frozenset(labels)),
        score=score,
    )


PASSAGE = Passage(id="p", text="passage")


class _FixedBackend:
    """Returns a fixed reply regardless of role; records requests."""

    def __init__(self, reply: str):
        self.reply = reply
        self.requests = []

    def chat(self, request):
        self.requests.append(request)
        return self.reply


class _FailingBackend:
    def chat(self, request):
        raise BackendError(request.role.value, "transport down")


def test_prompt_library_loads_all_roles_from_package_data():
    prompts = PromptLibrary()
    rendered = prompts.render(BackendRole.DECOMPOSER, {"query": "split me"})
    assert "split me" in rendered
    assert "$query" not in rendered


def test_prompt_library_custom_directory(tmp_path):
    for role in BackendRole:
        (tmp_path / f"{role.value}.txt").write_text(
            f"{role.value} custom template", encoding="utf-8"
        )
    prompts = PromptLibrary(tmp_path)
    assert prompts.render(BackendRole.JUDGE, {}) == "judge custom template"


def test_prompt_library_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="prompt_dir"):
        PromptLibrary(tmp_path / "nowhere")


def test_prompt_library_unknown_placeholder(tmp_path):
    for role in BackendRole:
        (tmp_path / f"{role.value}.txt").write_text("$bogus", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown placeholder \$bogus"):
        PromptLibrary(tmp_path)


def _package_template(role):
    path = resources.files("treeroute").joinpath("prompts", f"{role.value}.txt")
    return path.read_text(encoding="utf-8")


def _copy_package_prompts(directory):
    for role in BackendRole:
        (directory / f"{role.value}.txt").write_text(_package_template(role), encoding="utf-8")


def test_stray_dollar_in_a_prompt_template_fails_at_build(tmp_path):
    _copy_package_prompts(tmp_path)
    judge = tmp_path / "judge.txt"
    template = judge.read_text(encoding="utf-8")
    config = EngineConfig(backend_prompt_dir=str(tmp_path))
    judge.write_text(template + "Budget: $$5 max\n", encoding="utf-8")
    build_engine(config, [])
    prompts = PromptLibrary(tmp_path)
    rendered = prompts.render(BackendRole.JUDGE, {"query": "q", "sub_query": "s", "passage": "p"})
    assert rendered.endswith("Budget: $5 max\n")
    judge.write_text(template + "Budget: $5 max\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="judge.txt line"):
        build_engine(config, [])


def test_level_assessor_template_with_mode_fails_at_build(tmp_path):
    # Only tree-route queries are assessed, so the shipped template states
    # the route literally and $mode is not a placeholder.
    _copy_package_prompts(tmp_path)
    assert "Initial routing: tree\n" in _package_template(BackendRole.LEVEL_ASSESSOR)
    (tmp_path / "level_assessor.txt").write_text("Initial routing: $mode\n$query", encoding="utf-8")
    config = EngineConfig(backend_prompt_dir=str(tmp_path))
    with pytest.raises(ConfigError, match=r"level_assessor\.txt line 1: unknown placeholder \$mode"):
        build_engine(config, [])


def test_undecodable_prompt_template_fails_at_build(tmp_path):
    _copy_package_prompts(tmp_path)
    judge = tmp_path / "judge.txt"
    judge.write_bytes(judge.read_bytes() + "café\n".encode("latin-1"))
    config = EngineConfig(backend_prompt_dir=str(tmp_path))
    with pytest.raises(ConfigError, match=r"backend\.prompt_dir: cannot read .*judge\.txt"):
        build_engine(config, [])


def test_misspelled_placeholder_in_a_prompt_template_fails_at_build(tmp_path):
    _copy_package_prompts(tmp_path)
    judge = tmp_path / "judge.txt"
    config = EngineConfig(backend_prompt_dir=str(tmp_path))
    judge.write_text(judge.read_text(encoding="utf-8").replace("$passage", "$pasage"), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"judge\.txt line \d+: unknown placeholder \$pasage") as info:
        build_engine(config, [])
    assert "$passage" in str(info.value)  # the message lists what the judge accepts
    # Braced placeholders are checked too; every role field is accepted.
    judge.write_text("${query} ${sub_query} $passage ${sub_quer}", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown placeholder \$sub_quer"):
        build_engine(config, [])
    judge.write_text("${query} ${sub_query} $passage", encoding="utf-8")
    build_engine(config, [])


# Field values that a regex-based substitution would mangle.
RENDER_VALUES = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=list("aZ9_ $\\{}.*+?[]()^|\n"), max_size=8),
)
SHIPPED = PromptLibrary()


@given(st.sampled_from(list(BackendRole)), st.data())
def test_render_equals_substitute_on_the_shipped_templates(role, data):
    fields = {name: data.draw(RENDER_VALUES, label=name) for name in sorted(ROLE_FIELDS[role])}
    assert SHIPPED.render(role, fields) == Template(_package_template(role)).substitute(**fields)
    assert SHIPPED.render(role, {**fields, "unused": "$x"}) == SHIPPED.render(role, fields)
    for name in fields:
        with pytest.raises(KeyError):
            SHIPPED.render(role, {k: v for k, v in fields.items() if k != name})


# Judge fields, "$$", and two atoms load rejects: a stray "$" and an unknown field.
TEMPLATE_ATOMS = st.one_of(
    st.sampled_from(
        ["$$", "$query", "${query}", "$sub_query", "${sub_query}", "$passage", "${passage}"]
        + ["$", "${bogus}"]
    ),
    st.text(alphabet=list("ab_9 {}\\.\n"), min_size=1, max_size=4),
)


@given(
    st.lists(TEMPLATE_ATOMS, max_size=8).map("".join),
    st.fixed_dictionaries({name: RENDER_VALUES for name in sorted(ROLE_FIELDS[BackendRole.JUDGE])}),
)
@example("$query${sub_query}$passage", {"query": "$", "sub_query": "\\1", "passage": "{}"})
@example("$$${query}$$", {"query": ".*", "sub_query": "", "passage": ""})
def test_render_equals_substitute_on_generated_templates(text, fields):
    with tempfile.TemporaryDirectory() as directory:
        _copy_package_prompts(Path(directory))
        (Path(directory) / "judge.txt").write_text(text, encoding="utf-8")
        try:
            prompts = PromptLibrary(directory)
        except ConfigError:
            # Rejected at load exactly when substitute cannot render it.
            with pytest.raises((KeyError, ValueError)):
                Template(text).substitute(**fields)
            return
    expected = Template(text).substitute(**fields)
    assert prompts.render(BackendRole.JUDGE, fields) == expected
    assert prompts.render(BackendRole.JUDGE, {**fields, "unused": "$x"}) == expected
    used = {m.group("named") or m.group("braced") for m in Template.pattern.finditer(text)}
    for name in used - {None}:
        with pytest.raises(KeyError):
            prompts.render(BackendRole.JUDGE, {k: v for k, v in fields.items() if k != name})


def test_parse_decomposition_accepts_common_numbering():
    for text in (
        "1. first part\n2. second part",
        "1) first part\n2) second part",
        " 1 : first part\n 2 - second part",
        "Here you go:\n1. first part\n2. second part\nHope that helps.",
    ):
        assert parse_decomposition(text) == ("first part", "second part")


def test_parse_decomposition_requires_exactly_two():
    with pytest.raises(ParseError, match="found 1"):
        parse_decomposition("1. only one")
    with pytest.raises(ParseError, match="found 3"):
        parse_decomposition("1. a\n2. b\n3. c")
    with pytest.raises(ParseError, match="found 0"):
        parse_decomposition("no numbering at all")


def test_parse_decomposition_requires_distinct():
    with pytest.raises(ParseError, match="distinct"):
        parse_decomposition("1. same\n2. same")


def test_parse_level():
    assert parse_level("Complexity: HIGH") is SemanticLevel.HIGH
    assert parse_level("low") is SemanticLevel.LOW
    assert parse_level("I would say mid, not high") is SemanticLevel.MID
    assert parse_level("MIDDLING") is None
    assert parse_level("nothing useful") is None


def test_parse_verdict():
    assert parse_verdict("Relevant.") is True
    assert parse_verdict("clearly IRRELEVANT") is False
    # "Irrelevant" must not fire the "relevant" branch via its suffix.
    assert parse_verdict("Irrelevant, though it mentions cards") is False
    assert parse_verdict("no verdict here") is None
    # "not relevant" is a rejection, however it is spaced or cased.
    assert parse_verdict("Not relevant") is False
    assert parse_verdict("NOT  relevant.") is False
    assert parse_verdict("The passage is not relevant") is False
    assert parse_verdict("Relevant, not irrelevant") is True
    # A negation up to two words before the verdict word flips it.
    assert parse_verdict("not really relevant") is False
    assert parse_verdict("Not at all relevant") is False
    assert parse_verdict("isn't relevant") is False
    assert parse_verdict("Never relevant") is False
    assert parse_verdict("The passage is not irrelevant") is True


def test_parse_scores():
    parsed = parse_scores("1. 0.9\n2. 0.25\n3. 1e-1", count=3)
    assert parsed == [0.9, 0.25, 0.1]


def test_parse_scores_missing_and_out_of_range():
    parsed = parse_scores("1. 0.9\n7. 0.1", count=3)
    assert parsed == [0.9, None, None]


def test_parse_scores_first_mention_wins():
    assert parse_scores("1. 0.9\n1. 0.1", count=1) == [0.9]


def test_parse_scores_past_float_range_is_no_score():
    assert parse_scores("1. 1e999\n2. -1e999\n3. 1e308", count=3) == [None, None, 1e308]
    # The first line stays the answer, so a later finite one does not replace it.
    assert parse_scores("1. 1e999\n1. 0.9", count=1) == [None]


def _parse_scores_by_match(text: str, count: int) -> list[float | None]:
    """The reference for parse_scores: the same rule, one match object at a time."""
    found: dict[int, float | None] = {}
    for match in roles._NUMBERED_SCORE.finditer(text):
        index = int(match.group(1))
        if 1 <= index <= count and index not in found:
            value = float(match.group(2))
            found[index] = value if math.isfinite(value) else None
    return [found.get(i) for i in range(1, count + 1)]


_score_text = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.builds(
        "{}{}.{}e{}{}".format,
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 99),
        st.integers(0, 99),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 400),
    ),
)
_score_line = st.one_of(
    # Indices repeat and fall outside 1..count.
    st.builds(
        "{}{}{} {}".format,
        st.sampled_from(["", " ", "\t"]),
        st.integers(0, 12),
        st.sampled_from(["", ".", ")", ":", "-"]),
        _score_text,
    ),
    st.text(st.sampled_from("0123456789.-+e :)abc\t"), max_size=12),
)


@given(lines=st.lists(_score_line, max_size=16), count=st.integers(0, 10))
@example(lines=["1. 0.5", "1. 0.9", "11. 0.3", "0. 0.2", "2) -1e-3", "3: +2E+2"], count=3)
@example(lines=["1. 1e999", "1. 0.9", "2. -2.5e400"], count=2)
def test_parse_scores_reads_what_one_match_at_a_time_reads(lines, count):
    text = "\n".join(lines)
    assert parse_scores(text, count) == _parse_scores_by_match(text, count)


def test_parse_intents():
    catalog = ["cancel_card", "freeze_card", "open_savings"]
    assert parse_intents("cancel_card, freeze_card", catalog) == {
        "cancel_card",
        "freeze_card",
    }
    assert parse_intents("CANCEL_CARD", catalog) == {"cancel_card"}
    assert parse_intents("1. cancel_card\n2. open_savings.", catalog) == {
        "cancel_card",
        "open_savings",
    }
    assert parse_intents("something unrelated", catalog) == set()
    assert parse_intents("none", catalog) == set()


def test_runner_decompose_via_stub():
    runner = RoleRunner(StubChatBackend(), query="q")
    first, second = runner.decompose("freeze my card and order a replacement")
    assert (first, second) == ("freeze my card", "order a replacement")
    assert runner.calls[BackendRole.DECOMPOSER] == 1
    assert runner.prompt_tokens > 0


def test_runner_decompose_propagates_parse_error():
    runner = RoleRunner(_FixedBackend("no numbered lines"), query="q")
    with pytest.raises(DecompositionError, match="after 1 retry") as raised:
        runner.decompose("anything at all")
    assert isinstance(raised.value.__cause__, ParseError)
    assert runner.calls[BackendRole.DECOMPOSER] == 2


def test_runner_assess_level_happy_path():
    runner = RoleRunner(StubChatBackend(), query="q")
    level = runner.assess_level(["s1"], qci=0.7)
    assert level is SemanticLevel.HIGH
    assert runner.calls[BackendRole.LEVEL_ASSESSOR] == 1


def test_runner_assess_level_falls_back_with_warning():
    runner = RoleRunner(_FixedBackend("???"), query="q")
    level = runner.assess_level([], 0.9)
    assert level is SemanticLevel.MID
    assert runner.warnings and "mid" in runner.warnings[0]


def test_runner_assess_level_custom_fallback():
    runner = RoleRunner(_FixedBackend("???"), query="q", fallback_level=SemanticLevel.HIGH)
    level = runner.assess_level([], 0.9)
    assert level is SemanticLevel.HIGH


def test_runner_judge_verdicts():
    runner = RoleRunner(StubChatBackend(), query="q")
    assert runner.judge("sq", PASSAGE, sim=0.6) is True
    assert runner.judge("sq", PASSAGE, sim=0.4) is False
    assert runner.calls[BackendRole.JUDGE] == 2


def test_runner_judge_retains_on_parse_failure():
    runner = RoleRunner(_FixedBackend("shrug"), query="q")
    assert runner.judge("sq", PASSAGE, 0.4) is True
    assert runner.warnings and "no verdict" in runner.warnings[0]


def test_runner_judge_retains_on_transport_failure():
    runner = RoleRunner(_FailingBackend(), query="q")
    assert runner.judge("sq", PASSAGE, 0.4) is True
    assert runner.warnings and "failed" in runner.warnings[0]
    # The attempted call is still on the ledger.
    assert runner.calls[BackendRole.JUDGE] == 1


def test_runner_rerank_round_trips_scores():
    runner = RoleRunner(StubChatBackend(), query="q")
    candidates = [_sp("a", "text a", 0.31), _sp("b", "text b", 0.72)]
    scores = runner.rerank(candidates)
    assert scores == [0.31, 0.72]
    assert runner.calls[BackendRole.RERANKER] == 1


def test_runner_rerank_fills_missing_with_half():
    runner = RoleRunner(_FixedBackend("2. 0.9"), query="q")
    scores = runner.rerank([_sp("a", "ta", 0.1), _sp("b", "tb", 0.2)])
    assert scores == [0.5, 0.9]
    assert runner.warnings and "candidate 1" in runner.warnings[0]


def test_runner_rerank_clamps_out_of_range():
    # The runner passes parsed scores through; rescoring clamps them.
    runner = RoleRunner(_FixedBackend("1. 3.5\n2. -0.2"), query="q")
    candidates = [_sp("a", "ta", 0.1), _sp("b", "tb", 0.2)]
    assert runner.rerank(candidates) == [3.5, -0.2]
    assert [c.score for c in global_rescore(candidates, runner.rerank)] == [1.0, 0.0]
    assert runner.warnings == []


def test_runner_rerank_score_past_float_range_is_a_missing_score():
    # 1e999 reads as inf, which rescoring would clamp to 1.0 without a warning.
    runner = RoleRunner(_FixedBackend("1. 1e999\n2. -1e999\n3. 0.4"), query="q")
    candidates = [_sp("a", "ta", 0.1), _sp("b", "tb", 0.2), _sp("c", "tc", 0.3)]
    assert [c.score for c in global_rescore(candidates, runner.rerank)] == [0.5, 0.5, 0.4]
    assert runner.warnings == [
        "reranker gave no score for candidate 1, using 0.5",
        "reranker gave no score for candidate 2, using 0.5",
    ]


def test_runner_rerank_failure_falls_back_to_retrieval_scores():
    runner = RoleRunner(_FailingBackend(), query="q")
    scores = runner.rerank([_sp("a", "ta", 0.83), _sp("b", "tb", -0.2)])
    assert scores == [0.83, -0.2]
    assert runner.calls[BackendRole.RERANKER] == 1
    assert len(runner.warnings) == 1
    assert "falling back to retrieval scores" in runner.warnings[0]
    assert "transport down" in runner.warnings[0]


def test_runner_classify_unions_evidence_labels():
    runner = RoleRunner(StubChatBackend(), query="q")
    evidence = [
        _sp("a", "ta", 0.9, labels=("freeze_card",)),
        _sp("b", "tb", 0.8, labels=("cancel_card", "freeze_card")),
    ]
    catalog = ["cancel_card", "freeze_card", "open_savings"]
    intents = runner.classify(evidence, catalog)
    assert intents == {"cancel_card", "freeze_card"}
    assert runner.calls[BackendRole.INTENT_CLASSIFIER] == 1


def test_runner_classify_warns_on_empty():
    runner = RoleRunner(StubChatBackend(), query="q")
    intents = runner.classify([], ["cancel_card"])
    assert intents == set()
    assert runner.warnings


def _recording_remote(monkeypatch, config: EngineConfig, replies: dict[BackendRole, str]):
    """A remote client built from config whose POSTs are recorded, not sent."""
    bodies = []

    def fake_post_json(endpoint, body, timeout_s, role, parse):
        bodies.append(body)
        return parse({"choices": [{"message": {"content": replies[BackendRole(role)]}}]})

    monkeypatch.setattr(backends, "post_json", fake_post_json)
    return RemoteChatBackend("http://unused", "m", config.temperatures()), bodies


def test_runner_uses_configured_temperatures_and_budgets(monkeypatch):
    replies = {BackendRole.DECOMPOSER: "1. a\n2. b", BackendRole.JUDGE: "Relevant"}
    backend, bodies = _recording_remote(monkeypatch, EngineConfig(), replies)
    runner = RoleRunner(backend, query="q")
    runner.decompose("query text")
    defaults = EngineConfig().temperatures()
    assert bodies[0]["temperature"] == defaults[BackendRole.DECOMPOSER] == 0.3
    assert bodies[0]["max_tokens"] == MAX_OUTPUT_TOKENS[BackendRole.DECOMPOSER] == 256

    runner.judge("sq", PASSAGE, 0.4)
    assert bodies[1]["temperature"] == defaults[BackendRole.JUDGE] == 0.1
    assert bodies[1]["max_tokens"] == MAX_OUTPUT_TOKENS[BackendRole.JUDGE] == 16


def test_runner_temperature_override(monkeypatch):
    config = EngineConfig(apm_judge_temperature=0.9)
    backend, bodies = _recording_remote(monkeypatch, config, {BackendRole.JUDGE: "Relevant"})
    assert RoleRunner(backend, query="q").judge("sq", PASSAGE, 0.4) is True
    assert bodies[0]["temperature"] == 0.9


def test_runner_prompts_carry_role_inputs():
    backend = _FixedBackend("Relevant")
    runner = RoleRunner(backend, query="the original")
    runner.judge("the sub query", Passage(id="p", text="the passage text"), 0.4)
    prompt = backend.requests[0].prompt
    for fragment in ("the original", "the sub query", "the passage text"):
        assert fragment in prompt
