"""Seeded inputs for the benchmark workloads.

Every generator takes the seed as an argument and is a pure function of
it, so the same seed always gives the same corpus and the same query
stream. The engine only ever sees the generated passages and queries.
The word lists are part of the workload and do not change with the seed:
the seed decides what is drawn from them. Which few words a small list
holds would otherwise change, seed by seed, how the hashed embedding
scores them, and with it how much work a query takes.

The corpus is the 8 toy intent passages plus seeded distractor passages.
Distractor words come partly from the query vocabulary (template words
and the workload's filler words), so distractors compete at retrieval and
many land in the pruning gate's borderline band.

Queries are drawn from an 8-template mix that reaches every route:
simple, hybrid, and tree at depths 1, 2 and 3. Each block of 8 queries is
a seeded permutation of the templates, so every route keeps its share in
any run length. Filler words are inserted at seeded positions; they never
touch a routing lexicon and there are at most 4 of them, which keeps each
template inside its complexity band.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from treeroute.config import EngineConfig
from treeroute.dataset import IntentCatalogEntry, QueryRecord, build_kb
from treeroute.vectorstore import Passage

INTENTS = {
    "activate_card": "turn on a newly issued card",
    "cancel_card": "permanently cancel a payment card",
    "check_balance": "report the current account balance",
    "compare_rates": "compare interest rates across products",
    "dispute_charge": "contest a transaction on the account",
    "freeze_card": "temporarily block a payment card",
    "open_savings": "open a new savings account",
    "replace_card": "order a replacement payment card",
}


@dataclass(frozen=True)
class Template:
    text: str
    intents: frozenset[str]
    route: str  # route the adaptive router must pick
    depth: int  # depth the adaptive router must pick


TEMPLATES = (
    Template("cancel my card", frozenset({"cancel_card"}), "simple", 0),
    Template("freeze this card", frozenset({"freeze_card"}), "simple", 0),
    Template("what is my account balance", frozenset({"check_balance"}), "hybrid", 0),
    Template("how do i dispute this charge", frozenset({"dispute_charge"}), "hybrid", 0),
    Template(
        "first check my balance then freeze my card",
        frozenset({"check_balance", "freeze_card"}),
        "hybrid",
        0,
    ),
    Template(
        "freeze my card and order a replacement",
        frozenset({"freeze_card", "replace_card"}),
        "tree",
        1,
    ),
    Template(
        "compare savings rates and open the new account",
        frozenset({"compare_rates", "open_savings"}),
        "tree",
        2,
    ),
    Template(
        "which card is better and how do i activate it or replace it today",
        frozenset({"activate_card", "replace_card"}),
        "tree",
        3,
    ),
)

MAX_FILLERS = 4
PASSAGE_VOCAB = 20000  # words only distractor passages use
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    mode: str  # treeroute ExecutionMode value
    jobs: int  # closed-loop clients, passed to run_workload as run.jobs
    distractors: int  # seeded distractor passages added to the 8 intent passages
    filler_vocab: int  # distinct filler words queries draw from
    fillers: tuple[int, int]  # inclusive range of filler words per query
    fingerprint_queries: int  # fixed untimed query set: digest and quality metrics
    tail_percentile: float  # reported tail; a timed run keeps well over 10 samples beyond it


# Why each workload: see also BENCHMARK.json.
WORKLOADS = {
    spec.name: spec
    for spec in (
        # Every query a depth-3 tree over 8 passages with a wide filler
        # vocabulary, so texts rarely repeat: tree, pruning, roles, backends
        # and embeddings work hard while vector search stays tiny. Its timed
        # metrics swing by 20-39% between 30 s runs on a shared host, so it
        # is not declared in BENCHMARK.json; use it for per-layer traces.
        WorkloadSpec(
            name="toy-fixed3",
            mode="fixed3",
            jobs=1,
            distractors=0,
            filler_vocab=4000,
            fillers=(2, 4),
            fingerprint_queries=600,
            tail_percentile=99.0,
        ),
        # The paper's own path on ~5k passages: routing, the level assessor,
        # and trees whose searches dominate. A tiny filler set makes many
        # sub-query texts repeat, which is what an embedding cache feeds on.
        WorkloadSpec(
            name="kb5k-adaptive",
            mode="adaptive",
            jobs=1,
            distractors=5000,
            filler_vocab=6,
            fillers=(1, 1),
            fingerprint_queries=200,
            tail_percentile=95.0,
        ),
        # One retrieval plus rerank over ~50k passages with 2 clients: the
        # only run of the run_workload thread pool, search-bound, and the
        # only one where index build outweighs the queries.
        WorkloadSpec(
            name="kb50k-standard-j2",
            mode="standard",
            jobs=2,
            distractors=50000,
            filler_vocab=400,
            fillers=(1, 3),
            fingerprint_queries=80,
            tail_percentile=95.0,
        ),
    )
}

def catalog() -> list[IntentCatalogEntry]:
    """The toy intent catalog, exemplified by the templates that use each intent."""
    return [
        IntentCatalogEntry(
            name=name,
            description=description,
            examples=tuple(t.text for t in TEMPLATES if name in t.intents),
        )
        for name, description in sorted(INTENTS.items())
    ]


def _reserved_words() -> set[str]:
    config = EngineConfig()
    reserved = {
        *config.qci_lexicon_wh,
        *config.qci_lexicon_conjunction,
        *config.qci_lexicon_comparison,
        *config.qci_lexicon_sequence,
    }
    for template in TEMPLATES:
        reserved.update(template.text.split())
    return reserved


def pseudo_words(rng: random.Random, count: int, syllables: int) -> list[str]:
    """count distinct pronounceable non-words, none of them a template or lexicon word."""
    reserved = _reserved_words()
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in seen and word not in reserved:
            seen.add(word)
            words.append(word)
    return words


def _rng(seed: int | str, stream: str) -> random.Random:
    """One independent random stream per generator, so changing one leaves the others."""
    return random.Random(f"{seed}:{stream}")


def filler_vocabulary(spec: WorkloadSpec) -> list[str]:
    return pseudo_words(_rng("vocabulary", "fillers"), spec.filler_vocab, 2)


def make_corpus(spec: WorkloadSpec, seed: int) -> list[Passage]:
    """The 8 intent passages plus spec.distractors unlabeled distractors.

    Distractor i competes with template i mod 8: it takes 2 to 5 of that
    template's words and 0 or 1 filler words, padded with 3 to 8 words no
    query uses. The counts follow i, so every seed gives the same mix of
    overlaps and only the words drawn differ.
    """
    passages = build_kb([], catalog())
    rng = _rng(seed, "corpus")
    fillers = filler_vocabulary(spec)
    own = pseudo_words(_rng("vocabulary", "passage-words"), PASSAGE_VOCAB, 3)
    width = len(str(spec.distractors))
    for i in range(spec.distractors):
        template = TEMPLATES[i % len(TEMPLATES)].text.split()
        step = i // len(TEMPLATES)
        words = (
            rng.sample(template, 1 + step % 3)
            + rng.sample(fillers, step // 4 % 2)
            + rng.sample(own, 3 + step // 8 % 6)
        )
        rng.shuffle(words)
        passages.append(Passage(id=f"d:{i:0{width}d}", text=" ".join(words)))
    return passages


@dataclass(frozen=True)
class GeneratedQuery:
    record: QueryRecord
    template: Template


def query_stream(spec: WorkloadSpec, seed: int) -> Iterator[GeneratedQuery]:
    """Endless seeded query stream; ids sort in stream order."""
    rng = _rng(seed, "queries")
    fillers = filler_vocabulary(spec)
    low, high = spec.fillers
    if not 0 <= low <= high <= MAX_FILLERS:
        raise ValueError(f"{spec.name}: fillers must lie in 0..{MAX_FILLERS}")
    index = 0
    while True:
        block = list(TEMPLATES)
        rng.shuffle(block)
        for template in block:
            words = template.text.split()
            for filler in rng.sample(fillers, rng.randint(low, high)):
                words.insert(rng.randint(0, len(words)), filler)
            record = QueryRecord(
                id=f"q{index:08d}",
                text=" ".join(words),
                intents=template.intents,
                domain="banking",
            )
            yield GeneratedQuery(record=record, template=template)
            index += 1
