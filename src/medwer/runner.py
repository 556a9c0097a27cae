"""End-to-end evaluation: alignment and metrics per sample, then aggregation.

Per-sample work is pure, so samples can be scored by a worker pool; results
are reduced in manifest order and every count is an integer sum, which makes
the report independent of the worker count.
"""

import logging
import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .align import (DEFAULT_THRESHOLD, AlignedEntity, EntityAnnotation, med_text_align,
                    shared_span_count)
from .corpus import REPORT_FORMATS, AnnotationSet, TranscriptPair
from .metrics import (CorpusMetrics, SampleMetrics, aggregate, entity_recall,
                      medical_cer, medical_wer, wer)
from .textnorm import DEFAULT_MAX_NGRAM, NORMALIZATION_MODES, tokenize

log = logging.getLogger(__name__)

GROUP_KEYS = ("model", "accent", "domain")


@dataclass
class RunConfig:
    """Knobs for one evaluation run; defaults follow the standard recipe
    (cutoff 0.5, trigram candidates, standard normalization)."""

    manifest: Path | str | None = None
    annotations: Path | str | None = None
    threshold: float = DEFAULT_THRESHOLD
    max_ngram: int = DEFAULT_MAX_NGRAM
    normalization: str = "standard"
    out: Path | str | None = None
    fmt: str = "json"
    per_sample: bool = False
    group_by: tuple[str, ...] = ()
    strict: bool = False
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.max_ngram < 1:
            raise ValueError(f"max-ngram must be >= 1, got {self.max_ngram}")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"normalization must be one of {NORMALIZATION_MODES}, got {self.normalization!r}")
        if self.fmt not in REPORT_FORMATS:
            raise ValueError(f"format must be one of {REPORT_FORMATS}, got {self.fmt!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        unknown = set(self.group_by) - set(GROUP_KEYS)
        if unknown:
            raise ValueError(f"unknown group-by key(s) {sorted(unknown)}; expected a subset of {GROUP_KEYS}")

    def config_dict(self) -> dict:
        return {"threshold": self.threshold, "max_ngram": self.max_ngram,
                "normalization": self.normalization}


def _eval_task(task) -> tuple[list[AlignedEntity], SampleMetrics | None]:
    """Score one sample; the unit of work of the pool.

    The hypothesis is tokenized once, for the alignment and for WER. The
    metrics are computed only when the task asks for them, so alignment
    runs pay for none of them.
    """
    pair, entities, threshold, max_n, mode, scored = task
    hypothesis = tokenize(pair.hypothesis, mode)
    aligned = med_text_align(list(entities), hypothesis, threshold, max_n, mode)
    if not scored:
        return aligned, None
    return aligned, SampleMetrics(
        sample_id=pair.id,
        wer=wer(pair.reference, hypothesis, mode),
        mwer=medical_wer(aligned, mode),
        mcer=medical_cer(aligned, mode),
        recall=entity_recall(aligned),
    )


def evaluate_sample(pair: TranscriptPair, entities: tuple[EntityAnnotation, ...],
                    threshold: float = DEFAULT_THRESHOLD, max_n: int = DEFAULT_MAX_NGRAM,
                    mode: str = "standard") -> SampleMetrics:
    """The metrics of one sample, computed as evaluate_corpus computes them."""
    return _eval_task((pair, entities, threshold, max_n, mode, True))[1]


def _run_tasks(pairs: list[TranscriptPair], annotations: dict[str, AnnotationSet], cfg: RunConfig,
               scored: bool) -> Iterator[tuple[list[AlignedEntity], SampleMetrics | None]]:
    """_eval_task over the pairs, yielded in order, serially or on a pool of
    at most one process per sample and per core.

    Results stream so that each alignment can be dropped once consumed.
    """
    tasks = [(pair, annotations[pair.id].entities if pair.id in annotations else (),
              cfg.threshold, cfg.max_ngram, cfg.normalization, scored) for pair in pairs]
    workers = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        chunksize = max(1, len(tasks) // (workers * 4))
        with multiprocessing.Pool(workers) as pool:
            yield from pool.imap(_eval_task, tasks, chunksize=chunksize)
    else:
        yield from map(_eval_task, tasks)


def evaluate_corpus(pairs: list[TranscriptPair], annotations: dict[str, AnnotationSet],
                    cfg: RunConfig) -> tuple[CorpusMetrics, list[SampleMetrics], dict[str, CorpusMetrics]]:
    """Score every sample and aggregate; returns (corpus, per-sample, groups).

    Samples without an annotation record are scored with zero entities and
    show up in the skipped_zero_entity count.
    """
    samples = []
    reused = 0
    for aligned, sample in _run_tasks(pairs, annotations, cfg, scored=True):
        samples.append(sample)
        reused += shared_span_count(aligned)
    if reused:
        log.info("%d entities aligned to a hypothesis span shared with another entity", reused)

    groups: dict[str, CorpusMetrics] = {}
    if cfg.group_by:
        buckets: dict[str, list[SampleMetrics]] = {}
        for pair, sample in zip(pairs, samples):
            key = ",".join(f"{k}={getattr(pair, k) or ''}" for k in cfg.group_by)
            buckets.setdefault(key, []).append(sample)
        groups = {key: aggregate(buckets[key]) for key in sorted(buckets)}
    return aggregate(samples), samples, groups


def align_corpus(pairs: list[TranscriptPair], annotations: dict[str, AnnotationSet],
                 cfg: RunConfig) -> list[dict]:
    """Per-entity alignment records, ordered by (sample id, entity begin)."""
    ordered = sorted(pairs, key=lambda p: p.id)
    results = _run_tasks(ordered, annotations, cfg, scored=False)
    return [_record(pair.id, ae) for pair, (aligned, _) in zip(ordered, results) for ae in aligned]


def _record(sample_id: str, ae: AlignedEntity) -> dict:
    candidate = None
    if ae.candidate is not None:
        candidate = {
            "surface": ae.candidate.surface,
            "normalized": ae.candidate.normalized,
            "start_token": ae.candidate.start_token,
            "length_tokens": ae.candidate.length_tokens,
        }
    return {
        "id": sample_id,
        "entity": {
            "text": ae.entity.text,
            "category": ae.entity.category.value,
            "begin": ae.entity.begin,
            "end": ae.entity.end,
        },
        "candidate": candidate,
        "score": ae.score,
        "exact": ae.exact,
    }
