"""End-to-end evaluation: `evaluate` aligns and scores each sample, then
aggregates; `align` only aligns.

Per-sample work is pure, so each command is a map: it hands _run_shards one
function of one sample and gets back that function's result for every sample
in order. `evaluate` then sums the results; `align` returns them, one string
of records per sample, for the writer to stream. _run_shards splits the
samples into contiguous ranges, one per worker: this process maps the first
range, and one POSIX-forked child per other range maps the rest where the
platform has fork. Children inherit the loaded corpus, so nothing is sent to
them. Every count is an integer sum, so the output does not depend on the
worker count. Every byte a command writes, an `align` record or a group
label included, is rendered by corpus.
"""

import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .align import DEFAULT_THRESHOLD, AlignedEntity, med_text_align, shared_span_count
from .corpus import AnnotationSet, TranscriptPair, align_record, group_label
from .metrics import (CorpusMetrics, SampleMetrics, aggregate, entity_recall,
                      medical_cer, medical_wer, wer)
from .textnorm import DEFAULT_MAX_NGRAM, NORMALIZATION_MODES, tokenize

GROUP_KEYS = ("model", "accent", "domain")


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


def _run_shards(fn: Callable, items: Sequence, workers: int) -> list:
    """list(map(fn, items)), mapped in contiguous ranges of the items.

    There is one range per worker, clamped to the items and the usable CPUs.
    This process forks a child for every range after the first, maps the
    first range itself, then reads each child's pickled list from its pipe in
    order, appends it and reaps that child. A child's exception re-raises
    here; on any failure every child not yet reaped is killed and reaped
    before the raise.
    """
    # os.cpu_count() also counts the CPUs that a taskset or cpuset excludes,
    # so the affinity mask comes first.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    shards = min(workers, len(items), cpus)
    if shards < 2 or not hasattr(os, "fork"):
        return list(map(fn, items))
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
                        result = (True, list(map(fn, items[lo:hi])))
                    except BaseException as exc:  # the parent re-raises it
                        result = (False, exc)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = list(map(fn, items[:bounds[1]]))
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
            results += value
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
    def score(pair: TranscriptPair) -> tuple[SampleMetrics, int]:
        aligned, sample = _eval_task(pair, annotations, cfg)
        return sample, shared_span_count(aligned)

    samples, reused = [], 0
    for sample, shared in _run_shards(score, pairs, cfg.workers):
        samples.append(sample)
        reused += shared
    if reused:
        print(f"INFO {reused} entities aligned to a hypothesis span shared with another entity",
              file=sys.stderr)

    buckets: dict[tuple[str, ...], list[SampleMetrics]] = {}
    for pair, sample in zip(pairs, samples) if cfg.group_by else ():
        buckets.setdefault(tuple(getattr(pair, k) or "" for k in cfg.group_by), []).append(sample)
    labels = {group_label(cfg.group_by, values): values for values in buckets}
    groups = {label: aggregate(buckets[labels[label]]) for label in sorted(labels)}
    return aggregate(samples), samples, groups


def align_corpus(pairs: list[TranscriptPair], annotations: dict[str, AnnotationSet],
                 cfg: RunConfig) -> list[str]:
    """Per-entity alignment records as JSON lines, ordered by (sample id, entity
    begin): one string per sample, holding that sample's records."""
    def records(pair: TranscriptPair) -> str:
        return "".join([align_record(pair.id, ae) for ae in med_text_align(
            annotations[pair.id].entities if pair.id in annotations else (), pair.hypothesis,
            cfg.threshold, cfg.max_ngram, cfg.normalization)])

    return _run_shards(records, sorted(pairs, key=lambda p: p.id), cfg.workers)
