import multiprocessing
import os

import pytest

from medwer.align import EntityCategory
from medwer.fixtures import load_golden, synthetic_corpus
from medwer.metrics import aggregate
from medwer.runner import RunConfig, align_corpus, evaluate_corpus


@pytest.mark.parametrize("kwargs", [
    {"threshold": 0.0},
    {"threshold": 1.0001},
    {"max_ngram": 0},
    {"normalization": "fancy"},
    {"fmt": "yaml"},
    {"workers": 0},
    {"group_by": ("speaker",)},
    # csv reports have no group rows and table reports no per-sample rows
    {"fmt": "csv", "group_by": ("model",)},
    {"fmt": "table", "per_sample": True},
])
def test_run_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_run_config_defaults_follow_standard_recipe():
    cfg = RunConfig()
    assert cfg.threshold == 0.5
    assert cfg.max_ngram == 3
    assert cfg.normalization == "standard"
    assert cfg.config_dict() == {"threshold": 0.5, "max_ngram": 3, "normalization": "standard"}


def test_evaluate_corpus_matches_per_sample_aggregation():
    pairs, annotations = load_golden()
    corpus, samples, groups = evaluate_corpus(pairs, annotations, RunConfig())
    assert groups == {}
    assert [s.sample_id for s in samples] == [p.id for p in pairs]
    recomputed = aggregate(samples)
    assert corpus.wer == recomputed.wer
    assert corpus.mwer == recomputed.mwer
    assert corpus.recall == recomputed.recall


def test_missing_annotation_record_counts_as_zero_entity():
    pairs, annotations = load_golden()
    del annotations["t2r1"]
    corpus, samples, _ = evaluate_corpus(pairs, annotations, RunConfig())
    t2r1 = next(s for s in samples if s.sample_id == "t2r1")
    assert t2r1.mwer.ref_len == 0
    assert t2r1.recall == {}
    assert corpus.skipped_zero_entity == 1


def test_grouping_partitions_the_corpus():
    pairs, annotations = synthetic_corpus(10, seed=3, tokens_per_sample=10)
    cfg = RunConfig(group_by=("model", "accent"))
    corpus, _, groups = evaluate_corpus(pairs, annotations, cfg)
    assert sum(g.samples for g in groups.values()) == corpus.samples
    assert sum(g.wer.errors for g in groups.values()) == corpus.wer.errors
    assert all("model=" in key and "accent=" in key for key in groups)
    assert list(groups) == sorted(groups)


def test_worker_count_does_not_change_results():
    pairs, annotations = synthetic_corpus(12, seed=9, tokens_per_sample=12)
    serial, samples_serial, _ = evaluate_corpus(pairs, annotations, RunConfig(workers=1))
    pooled, samples_pooled, _ = evaluate_corpus(pairs, annotations, RunConfig(workers=3))
    assert samples_serial == samples_pooled
    assert serial.wer == pooled.wer and serial.mcer == pooled.mcer


def test_evaluate_sample_shape():
    pairs, annotations = load_golden()
    _, samples, _ = evaluate_corpus(pairs, annotations, RunConfig())
    sample = next(s for s in samples if s.sample_id == "t2r1")
    assert sample.sample_id == "t2r1"
    assert (sample.mwer.errors, sample.mwer.ref_len) == (4, 3)
    assert sample.recall[EntityCategory.MED].total == 3


def test_align_corpus_ordering_and_content():
    pairs, annotations = load_golden()
    records = align_corpus(pairs, annotations, RunConfig())
    keys = [(r["id"], r["entity"]["begin"]) for r in records]
    assert keys == sorted(keys)
    t2r1 = [r for r in records if r["id"] == "t2r1"]
    assert [r["candidate"]["normalized"] for r in t2r1] == ["quinidan", "disopiramid", "dikod sin"]
    empty = [r for r in records if r["id"] == "t1_empty"]
    assert all(r["candidate"] is None and r["score"] == 0.0 for r in empty)


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, runs tasks inline."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("run", [evaluate_corpus, align_corpus])
@pytest.mark.parametrize("cpus, n_samples, pool_size", [
    (3, 5, 3),      # clamped to the cores
    (8, 5, 5),      # clamped to the tasks
    (None, 5, None),  # unknown core count: one worker, so no pool at all
])
def test_worker_count_is_clamped(monkeypatch, run, cpus, n_samples, pool_size):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    pairs, annotations = synthetic_corpus(n_samples, seed=4, tokens_per_sample=8)
    pooled = run(pairs, annotations, RunConfig(workers=10000))
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    assert pooled == run(pairs, annotations, RunConfig(workers=1))
