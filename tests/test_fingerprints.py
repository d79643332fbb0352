"""The benchmark's seed-1 fingerprint digests, rebuilt in-process.

Each declared perfbench workload runs its fixed, untimed query set
through build_engine and run_workload, and the SHA-256 of the written
trace file must equal the digest the benchmark reports. A change that
alters traces on purpose updates these values and says why.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import pytest

from treeroute.config import EngineConfig
from treeroute.pipeline import ExecutionMode, build_engine, run_workload, write_traces

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SEED = 1
DIGESTS = {
    "toy-fixed3": "e957971135ae59c0357ca8f2186e63b0c1a0079190c51ef80adbcbefb1604180",
    "kb5k-adaptive": "b4968a4b9f460f88da440faa548026eec73fbd0985ac88cb28dd15222b513e23",
    "kb50k-standard-j2": "c3dc602b6a6a9f7ee550c44bff1fb98ee40b6710580a4f936e6e94c14413c607",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_fingerprint_digest_is_pinned(tmp_path, name):
    spec = workloads.WORKLOADS[name]
    config = EngineConfig()
    config.run_jobs = spec.jobs
    intents = [entry.name for entry in workloads.catalog()]
    engine = build_engine(config, workloads.make_corpus(spec, SEED), intents)
    queries = itertools.islice(workloads.query_stream(spec, SEED), spec.fingerprint_queries)
    traces = run_workload(engine, [q.record for q in queries], ExecutionMode(spec.mode))
    path = tmp_path / f"{name}.jsonl"
    write_traces(path, traces)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
