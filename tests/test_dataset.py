from __future__ import annotations

import json

import pytest

from treeroute.dataset import (
    DERIVED_EXAMPLE_LIMIT,
    IntentCatalogEntry,
    QueryRecord,
    build_kb,
    derive_catalog,
    ingest,
    load_catalog,
)
from treeroute.errors import DatasetError


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    return path


def test_ingest_drops_duplicates_and_unlabeled(tmp_path):
    rows = [
        {"id": "q1", "text": "cancel my card", "intents": ["cancel_card"]},
        {"id": "q2", "text": "what is my balance", "intents": ["check_balance"]},
        {"id": "q3", "text": "cancel my card", "intents": ["cancel_card"]},
        {"id": "q4", "text": "mystery text", "intents": []},
        {"id": "q5", "text": "freeze it", "intents": ["freeze_card"], "domain": "cards"},
    ]
    result = ingest(_write_jsonl(tmp_path / "w.jsonl", rows))
    assert [r.id for r in result.records] == ["q1", "q2", "q5"]
    assert result.dropped_duplicates == 1
    assert result.dropped_unlabeled == 1
    assert result.records[2].domain == "cards"
    assert result.records[0].intents == frozenset({"cancel_card"})


def test_ingest_duplicate_check_runs_before_unlabeled_check(tmp_path):
    rows = [
        {"id": "q1", "text": "same text", "intents": ["a"]},
        {"id": "q2", "text": "same text", "intents": []},
    ]
    result = ingest(_write_jsonl(tmp_path / "w.jsonl", rows))
    assert result.dropped_duplicates == 1
    assert result.dropped_unlabeled == 0


def test_ingest_skips_blank_lines(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text(
        '\n\n{"id": "q1", "text": "hello there", "intents": ["a"]}\n\n', encoding="utf-8"
    )
    assert len(ingest(path).records) == 1


def test_ingest_errors_name_the_line(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text(
        '{"id": "q1", "text": "ok", "intents": ["a"]}\nnot json at all', encoding="utf-8"
    )
    with pytest.raises(DatasetError, match="line 2"):
        ingest(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ({"text": "x", "intents": []}, "missing field 'id'"),
        ({"id": "q", "intents": []}, "missing field 'text'"),
        ({"id": "q", "text": "x"}, "missing field 'intents'"),
        ({"id": "", "text": "x", "intents": []}, "id must be"),
        ({"id": "q", "text": "   ", "intents": []}, "text must be"),
        ({"id": "q", "text": "x", "intents": "a"}, "intents must be"),
        ({"id": "q", "text": "x", "intents": [1]}, "intents must be"),
        ({"id": "q", "text": "x", "intents": [], "domain": 7}, "domain must be"),
    ],
)
def test_ingest_field_validation(tmp_path, row, message):
    with pytest.raises(DatasetError, match=message):
        ingest(_write_jsonl(tmp_path / "w.jsonl", [row]))


def test_ingest_rejects_duplicate_ids(tmp_path):
    rows = [
        {"id": "q1", "text": "first text", "intents": ["a"]},
        {"id": "q1", "text": "second text", "intents": ["a"]},
    ]
    with pytest.raises(DatasetError, match="duplicate id"):
        ingest(_write_jsonl(tmp_path / "w.jsonl", rows))


def test_ingest_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        ingest(tmp_path / "absent.jsonl")


def test_ingest_undecodable_file(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"id": "q1", "text": "caf\xe9", "intents": ["a"]}\n')
    with pytest.raises(DatasetError, match="cannot read workload file"):
        ingest(path)


def test_load_catalog(tmp_path):
    rows = [
        {"name": "cancel_card", "description": "cancel a card", "examples": ["cancel it"]},
        {"name": "check_balance"},
    ]
    entries = load_catalog(_write_jsonl(tmp_path / "c.jsonl", rows))
    assert entries[0] == IntentCatalogEntry(
        name="cancel_card", description="cancel a card", examples=("cancel it",)
    )
    assert entries[1].description == "check_balance"
    assert entries[1].examples == ()


def test_load_catalog_rejects_duplicates(tmp_path):
    rows = [{"name": "a"}, {"name": "a"}]
    with pytest.raises(DatasetError, match="duplicate intent"):
        load_catalog(_write_jsonl(tmp_path / "c.jsonl", rows))


def test_load_catalog_validates_examples(tmp_path):
    rows = [{"name": "a", "examples": "not a list"}]
    with pytest.raises(DatasetError, match="examples"):
        load_catalog(_write_jsonl(tmp_path / "c.jsonl", rows))


def _record(rid, text, intents):
    return QueryRecord(id=rid, text=text, intents=frozenset(intents))


def test_derive_catalog_picks_shortest_examples():
    records = [
        _record("q1", "a much longer example query about cancelling", ["cancel_card"]),
        _record("q2", "cancel it", ["cancel_card"]),
        _record("q3", "cancel my card", ["cancel_card"]),
        _record("q4", "check balance", ["check_balance"]),
    ]
    catalog = derive_catalog(records)
    assert [e.name for e in catalog] == ["cancel_card", "check_balance"]
    assert catalog[0].examples == (
        "cancel it",
        "cancel my card",
        "a much longer example query about cancelling",
    )
    assert catalog[0].description == "cancel card"


def test_derive_catalog_caps_examples():
    records = [
        _record(f"q{i}", f"text with padding {i:02d}", ["intent_a"]) for i in range(9)
    ]
    catalog = derive_catalog(records)
    assert len(catalog[0].examples) == DERIVED_EXAMPLE_LIMIT == 5
    assert catalog[0].examples == tuple(f"text with padding {i:02d}" for i in range(5))


def test_derive_catalog_multi_intent_records_count_everywhere():
    records = [_record("q1", "freeze and replace", ["freeze_card", "replace_card"])]
    catalog = derive_catalog(records)
    assert [e.name for e in catalog] == ["freeze_card", "replace_card"]
    assert all(e.examples == ("freeze and replace",) for e in catalog)


def test_build_kb_one_passage_per_intent():
    catalog = [
        IntentCatalogEntry(
            name="cancel_card",
            description="cancel a payment card",
            examples=("cancel it", "cancel my card"),
        ),
        IntentCatalogEntry(name="check_balance", description="report the balance"),
    ]
    passages = build_kb([], catalog)
    assert [p.id for p in passages] == ["kb:cancel_card", "kb:check_balance"]
    assert passages[0].text == (
        "cancel_card: cancel a payment card | examples: cancel it ; cancel my card"
    )
    assert passages[0].intent_labels == frozenset({"cancel_card"})
    assert passages[1].text == "check_balance: report the balance"


def test_build_kb_derives_catalog_from_records():
    records = [_record("q1", "freeze my card", ["freeze_card"])]
    passages = build_kb(records)
    assert [p.id for p in passages] == ["kb:freeze_card"]
    assert "freeze my card" in passages[0].text


def test_build_kb_empty_inputs_warn_and_return_empty(caplog):
    with caplog.at_level("WARNING"):
        assert build_kb([]) == []
    assert any("empty" in message for message in caplog.messages)


def test_build_kb_sorts_catalog_by_name():
    catalog = [
        IntentCatalogEntry(name="zeta", description="z"),
        IntentCatalogEntry(name="alpha", description="a"),
    ]
    assert [p.id for p in build_kb([], catalog)] == ["kb:alpha", "kb:zeta"]
