"""End-to-end evaluation: `evaluate` aligns and scores each sample, then
aggregates; `align` only aligns.

Per-sample work is pure. Each command hands _run_shards one step, a function
of a contiguous range of its ordered samples. The step runs once per range,
one range per worker: in this process for the first range, and in one
POSIX-forked child per other range where the platform has fork. Children
inherit the loaded corpus, so nothing is sent to them. Results are joined in
range order and every count is an integer sum, so the output does not depend
on the worker count.

Each `align` record is rendered from one fixed template, which the tests
check against the record's dict written by json.dumps.
"""

import json
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .align import DEFAULT_THRESHOLD, AlignedEntity, med_text_align, shared_span_count
from .corpus import AnnotationSet, TranscriptPair
from .metrics import (CorpusMetrics, SampleMetrics, aggregate, entity_recall,
                      medical_cer, medical_wer, wer)
from .textnorm import DEFAULT_MAX_NGRAM, NORMALIZATION_MODES, tokenize

GROUP_KEYS = ("model", "accent", "domain")
_QUOTE_TRIGGERS = frozenset(',="')


# A dataclass, not a tuple: __post_init__ validates it when it is constructed.
@dataclass
class RunConfig:
    """Knobs for one run: how samples are scored, how they are grouped, and
    how many workers score them. Defaults follow the standard recipe (cutoff
    0.5, trigram candidates, standard normalization). The files, the strict
    flag and the report's shape stay with the CLI, which hands them to the
    loaders and the writer."""

    threshold: float = DEFAULT_THRESHOLD
    max_ngram: int = DEFAULT_MAX_NGRAM
    normalization: str = "standard"
    group_by: tuple[str, ...] = ()
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.max_ngram < 1:
            raise ValueError(f"max-ngram must be >= 1, got {self.max_ngram}")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"normalization must be one of {NORMALIZATION_MODES}, got {self.normalization!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        unknown = set(self.group_by) - set(GROUP_KEYS)
        if unknown:
            raise ValueError(f"unknown group-by key(s) {sorted(unknown)}; expected a subset of {GROUP_KEYS}")
        if len(set(self.group_by)) < len(self.group_by):
            raise ValueError(f"repeated group-by key in {','.join(self.group_by)}")

    def config_dict(self) -> dict:
        return {"threshold": self.threshold, "max_ngram": self.max_ngram,
                "normalization": self.normalization}


def _eval_task(pair: TranscriptPair, annotations: dict[str, AnnotationSet],
               cfg: RunConfig) -> tuple[list[AlignedEntity], SampleMetrics]:
    """Align and score one sample: the unit of work of `evaluate`.

    The hypothesis is tokenized once, for the alignment and for WER.
    """
    entities = annotations[pair.id].entities if pair.id in annotations else ()
    hypothesis = tokenize(pair.hypothesis, cfg.normalization)
    aligned = med_text_align(entities, hypothesis, cfg.threshold, cfg.max_ngram, cfg.normalization)
    return aligned, SampleMetrics(pair.id, wer(pair.reference, hypothesis, cfg.normalization),
                                  medical_wer(aligned), medical_cer(aligned), entity_recall(aligned))


def _usable_cpus() -> int:
    """CPUs this process may run on: os.cpu_count() also counts those that a
    taskset or cpuset excludes, so the affinity mask comes first."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shards(step: Callable[[Sequence], object], items: Sequence, workers: int) -> list:
    """step(range) for contiguous ranges of the items, in order.

    There is one range per worker, clamped to the items and the usable CPUs.
    This process forks a child for every range after the first, runs the step
    on the first itself, then reads each child's pickled result from its pipe
    in order and reaps that child. A child's exception re-raises here; on any
    failure every child not yet reaped is killed and reaped before the raise.
    """
    shards = min(workers, len(items), _usable_cpus())
    if shards < 2 or not hasattr(os, "fork"):
        return [step(items)]
    import pickle
    import signal

    bounds = [len(items) * k // shards for k in range(shards + 1)]
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child leaves only through os._exit, so no atexit handler
                # runs and no output the parent had buffered is flushed twice.
                code = 1
                try:
                    try:
                        result = (True, step(items[lo:hi]))
                    except BaseException as exc:  # the parent re-raises it
                        result = (False, exc)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = [step(items[:bounds[1]])]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if not payload:
                raise ChildProcessError(f"shard process {pid} exited with code "
                                        f"{os.waitstatus_to_exitcode(status)} and sent no result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def evaluate_corpus(pairs: list[TranscriptPair], annotations: dict[str, AnnotationSet],
                    cfg: RunConfig) -> tuple[CorpusMetrics, list[SampleMetrics], dict[str, CorpusMetrics]]:
    """Score every sample and aggregate; returns (corpus, per-sample, groups).

    Samples without an annotation record are scored with zero entities and
    show up in the skipped_zero_entity count. An INFO line on stderr counts
    the entities that share a hypothesis span with another.
    """
    def step(part: list[TranscriptPair]) -> tuple[list[SampleMetrics], int]:
        part_samples, shared = [], 0
        for pair in part:
            aligned, sample = _eval_task(pair, annotations, cfg)
            part_samples.append(sample)
            shared += shared_span_count(aligned)
        return part_samples, shared

    samples, reused = [], 0
    for shard_samples, shard_reused in _run_shards(step, pairs, cfg.workers):
        samples += shard_samples
        reused += shard_reused
    if reused:
        print(f"INFO {reused} entities aligned to a hypothesis span shared with another entity",
              file=sys.stderr)

    buckets: dict[tuple[str, ...], list[SampleMetrics]] = {}
    for pair, sample in zip(pairs, samples) if cfg.group_by else ():
        buckets.setdefault(tuple(getattr(pair, k) or "" for k in cfg.group_by), []).append(sample)
    labels = {_group_label(cfg.group_by, values): values for values in buckets}
    groups = {label: aggregate(buckets[labels[label]]) for label in sorted(labels)}
    return aggregate(samples), samples, groups


def _group_label(keys: tuple[str, ...], values: tuple[str, ...]) -> str:
    """key=value pairs joined by commas; a value holding a comma, an equals sign or a
    double quote is a JSON string literal, so distinct groups get distinct labels,
    and one that is not printable (a line break, a tab) is an ASCII-escaped one,
    so a table row stays on one line."""
    shown = (v if v.isprintable() and not _QUOTE_TRIGGERS.intersection(v)
             else json.dumps(v, ensure_ascii=not v.isprintable()) for v in values)
    return ",".join(f"{key}={value}" for key, value in zip(keys, shown))


def align_corpus(pairs: list[TranscriptPair], annotations: dict[str, AnnotationSet],
                 cfg: RunConfig) -> str:
    """Per-entity alignment records as JSON lines, ordered by (sample id, entity begin)."""
    def step(part: list[TranscriptPair]) -> str:
        return "".join(_record_json(pair.id, ae) for pair in part for ae in med_text_align(
            annotations[pair.id].entities if pair.id in annotations else (), pair.hypothesis,
            cfg.threshold, cfg.max_ngram, cfg.normalization))

    return "".join(_run_shards(step, sorted(pairs, key=lambda p: p.id), cfg.workers))


def _record_json(sample_id: str, ae: AlignedEntity) -> str:
    """One alignment record as a JSON line, from a fixed template. Only the
    strings need escaping; a score is a finite float, which json.dumps
    writes as its repr."""
    entity, span = ae.entity, ae.candidate
    candidate = "null" if span is None else (
        f'{{"surface": {json.dumps(span.surface)}, "normalized": {json.dumps(span.normalized)}, '
        f'"start_token": {span.start_token}, "length_tokens": {span.length_tokens}}}')
    return (f'{{"id": {json.dumps(sample_id)}, "entity": {{"text": {json.dumps(entity.text)}, '
            f'"category": "{entity.category.value}", "begin": {entity.begin}, "end": {entity.end}}}, '
            f'"candidate": {candidate}, "score": {ae.score!r}, '
            f'"exact": {"true" if ae.exact else "false"}}}\n')
