import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from helpers import dump_corpus
from medwer import cli, runner
from medwer._oracles import reference_sample
from medwer.align import AlignedEntity, EntityAnnotation, EntityCategory
from medwer.corpus import AnnotationSet, TranscriptPair, align_record, render_json, render_table
from medwer.fixtures import load_golden, synthetic_corpus
from medwer.fuzzy import similarity_ratio
from medwer.metrics import aggregate
from medwer.runner import RunConfig, align_corpus, evaluate_corpus
from medwer.textnorm import CandidateSpan
from oracles import reference_corpus, reference_record_json

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="shards are POSIX forks")


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the children os.fork starts. Each child is let finish
    before fork returns in the parent, so at most two processes run at once
    whatever the worker count; its result must fit the pipe buffer."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


# RunConfig itself checks nothing (cli._run_config checks the flags); the
# aligner, the n-gram builder and the normalizer reject a bad scoring value
# before any output.
@pytest.mark.parametrize("kwargs", [
    {"threshold": 0.0},
    {"threshold": 1.0001},
    {"max_ngram": 0},
    {"normalization": "fancy"},
])
def test_run_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        evaluate_corpus(*load_golden(), RunConfig(**kwargs))


def test_run_config_defaults_follow_standard_recipe():
    cfg = RunConfig()
    assert cfg.threshold == 0.5
    assert cfg.max_ngram == 3
    assert cfg.normalization == "standard"


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


def test_group_values_holding_separators_keep_their_groups_apart():
    # joined bare, both samples would be labelled model=x,accent=y,accent=
    pairs = [TranscriptPair("s1", "dose", "dose", model="x,accent=y"),
             TranscriptPair("s2", "dose", "dose", accent="y,accent=", model="x")]
    _, _, groups = evaluate_corpus(pairs, {}, RunConfig(group_by=("model", "accent")))
    assert {key: g.samples for key, g in groups.items()} == {
        'model="x,accent=y",accent=': 1, 'model=x,accent="y,accent="': 1}


@pytest.mark.parametrize("control", ["\n", "\t", "\r", "\x85", "\u2028"])
def test_group_values_that_are_not_printable_keep_one_table_line(control):
    # printable values keep their bytes, look-alikes of the escape included
    values = [f"x{control}y", "x y", "x\\ny", '"x\\ny"', "ñ,x"]
    pairs = [TranscriptPair(f"s{i}", "dose", "dose", model=value) for i, value in enumerate(values)]
    corpus, _, groups = evaluate_corpus(pairs, {}, RunConfig(group_by=("model",)))
    assert set(groups) == {f"model={json.dumps(values[0])}", "model=x y", "model=x\\ny",
                           'model="\\"x\\\\ny\\""', 'model="ñ,x"'}
    doc = json.loads("".join(render_json(corpus, None, RunConfig(), groups)))
    assert len(doc["groups"]) == len(values)
    assert len(render_table(corpus, groups).splitlines()) == 2 + len(values)


@needs_fork
def test_worker_count_does_not_change_results(forks):
    pairs, annotations = synthetic_corpus(12, seed=9, tokens_per_sample=12)
    serial, samples_serial, _ = evaluate_corpus(pairs, annotations, RunConfig(workers=1))
    pooled, samples_pooled, _ = evaluate_corpus(pairs, annotations, RunConfig(workers=3))
    assert samples_serial == samples_pooled
    assert serial.wer == pooled.wer and serial.mcer == pooled.mcer


# letters with special case mappings (ß, final ς, dotted İ, the ﬁ ligature),
# a combining acute that composes with "e" (so "é" comes both ways), and
# chunks that are punctuation only or keep an inner hyphen or period
_e2e_chunk = st.one_of(st.text("abeéßσςİﬁ\u0301", min_size=1, max_size=5),
                       st.sampled_from(["-", "...", "'", "(ß)", "a-b", "é."]))


@st.composite
def e2e_corpus(draw):
    """1-4 samples and the run's knobs. Entities have exact offsets; some are
    repeated or overlap, and some are punctuation only, which the loader
    would reject but the joins must skip. Hypotheses may be empty, and some
    samples have no annotation record."""
    pairs, annotations = [], {}
    for n in range(draw(st.integers(1, 4))):
        words = draw(st.lists(_e2e_chunk, min_size=1, max_size=6))
        spans = draw(st.lists(st.tuples(st.integers(0, len(words) - 1), st.integers(1, 3)),
                              min_size=1, max_size=4))
        entities = []
        for start, length in spans:
            text = " ".join(words[start:start + length])
            begin = len(" ".join(words[:start])) + (1 if start else 0)
            entities.append(EntityAnnotation(text, draw(st.sampled_from(list(EntityCategory))),
                                             begin, begin + len(text)))
        # a word, a word with a letter dropped or a chunk glued on (a close miss), any chunk
        chunk = st.one_of(st.sampled_from(words), st.sampled_from(words).map(lambda w: w[1:] or w),
                          st.sampled_from(words).map(lambda w: w[:-1] or w),
                          st.tuples(st.sampled_from(words), _e2e_chunk).map("".join), _e2e_chunk)
        hypothesis = " ".join(draw(st.lists(chunk, max_size=8)))
        pairs.append(TranscriptPair(f"s{n}", " ".join(words), hypothesis))
        if draw(st.sampled_from([True, True, True, False])):
            entities.sort(key=lambda e: (e.begin, e.end))
            annotations[f"s{n}"] = AnnotationSet(f"s{n}", tuple(entities))
    knobs = {"normalization": draw(st.sampled_from(["standard", "raw"])),
             "max_ngram": draw(st.integers(1, 3)), "threshold": draw(st.sampled_from([0.5, 0.8]))}
    return pairs, annotations, knobs


# _mean rounds three times: each per-sample rate, the fsum of the rates and
# the quotient. Rates are never negative, so each rounding moves the mean by
# at most 2**-53 of its size, and all three by less than 4 * 2**-53.
_MACRO_TOLERANCE = Fraction(4, 2**53)


def assert_corpus_equals_reference(corpus, reference):
    """Counts, recall and sample counts equal; each macro mean within
    _MACRO_TOLERANCE of the exact one, and NaN where that is None."""
    assert corpus[:7] == reference[:7]
    assert corpus.macro_recall.keys() == reference.macro_recall.keys()
    means = [(corpus.macro_wer, reference.macro_wer), (corpus.macro_mwer, reference.macro_mwer),
             (corpus.macro_mcer, reference.macro_mcer)]
    for got, exact in means + [(corpus.macro_recall[c], reference.macro_recall[c]) for c in reference.macro_recall]:
        if exact is None:
            assert math.isnan(got)
        else:
            assert abs(Fraction(got) - exact) <= _MACRO_TOLERANCE * exact


def _reference_samples(pairs, annotations, threshold=0.5, max_ngram=3, normalization="standard"):
    return [reference_sample(pair.reference, pair.hypothesis,
                             annotations[pair.id].entities if pair.id in annotations else (),
                             threshold, max_ngram, normalization) for pair in pairs]


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpus=e2e_corpus())
# "abé" and "abσ" tie on score; the earlier start wins
@example(corpus=([TranscriptPair("s0", "abéσ", "abé abσ")],
                 {"s0": AnnotationSet("s0", (EntityAnnotation("abéσ", EntityCategory.MED, 0, 4),))},
                 {"normalization": "standard", "max_ngram": 1, "threshold": 0.5}))
def test_evaluate_and_align_corpus_equal_the_reference_pipeline(request, monkeypatch, workers, corpus):
    if workers > 1:  # shard on a one-CPU host too, one child at a time
        request.getfixturevalue("forks")
        two_cpus(monkeypatch)
    pairs, annotations, knobs = corpus
    cfg = RunConfig(workers=workers, **knobs)
    totals, samples, _ = evaluate_corpus(pairs, annotations, cfg)
    records = [json.loads(line) for chunk in align_corpus(pairs, annotations, cfg) for line in chunk.splitlines()]
    oracles = _reference_samples(pairs, annotations, **knobs)
    for pair, sample, oracle in zip(pairs, samples, oracles, strict=True):
        assert sample.sample_id == pair.id
        assert sample.wer == oracle.wer
        assert sample.mwer == oracle.mwer
        assert sample.mcer == oracle.mcer
        assert sample.recall == oracle.recall

    # the pairs are in id order, as align_corpus writes them
    assert [(r["candidate"] and r["candidate"]["normalized"], r["score"], r["exact"]) for r in records] == [
        (match and match.normalized, match.score if match else 0.0, exact)
        for o in oracles for match, exact in zip(o.alignment, o.exact)]
    assert_corpus_equals_reference(totals, reference_corpus(oracles))


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
@pytest.mark.parametrize("corpus", ["golden", "synthetic"])
def test_the_corpus_record_equals_the_reference_corpus(request, monkeypatch, workers, corpus):
    if workers > 1:
        request.getfixturevalue("forks")
        two_cpus(monkeypatch)
    if corpus == "golden":
        pairs, annotations = load_golden()
    else:
        # every fifth sample unannotated, and one whose reference has no words
        pairs, annotations = synthetic_corpus(30, seed=13)
        pairs.append(TranscriptPair("s-punctuation", "...", "a b"))
        annotations = {key: value for n, (key, value) in enumerate(annotations.items()) if n % 5}
    totals, _, _ = evaluate_corpus(pairs, annotations, RunConfig(workers=workers))
    assert_corpus_equals_reference(totals, reference_corpus(_reference_samples(pairs, annotations)))


def test_evaluate_sample_shape():
    pairs, annotations = load_golden()
    _, samples, _ = evaluate_corpus(pairs, annotations, RunConfig())
    sample = next(s for s in samples if s.sample_id == "t2r1")
    assert sample.sample_id == "t2r1"
    assert (sample.mwer.errors, sample.mwer.ref_len) == (4, 3)
    assert sample.recall[EntityCategory.MED].total == 3


def test_align_corpus_ordering_and_content():
    pairs, annotations = load_golden()
    chunks = align_corpus(pairs, annotations, RunConfig())
    # one string per sample, holding that sample's records
    assert [{json.loads(line)["id"] for line in chunk.splitlines()} for chunk in chunks] == [
        {p.id} for p in sorted(pairs, key=lambda p: p.id)]
    records = [json.loads(line) for chunk in chunks for line in chunk.splitlines()]
    keys = [(r["id"], r["entity"]["begin"]) for r in records]
    assert keys == sorted(keys)
    t2r1 = [r for r in records if r["id"] == "t2r1"]
    assert [r["candidate"]["normalized"] for r in t2r1] == ["quinidan", "disopiramid", "dikod sin"]
    empty = [r for r in records if r["id"] == "t1_empty"]
    assert all(r["candidate"] is None and r["score"] == 0.0 for r in empty)


_hostile_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t ñ\U0001F600\U0001D49C'),
                                   st.characters()))
_score = st.one_of(st.just(0.0), st.just(1.0),
                   st.builds(similarity_ratio, st.text("abcñ", max_size=12), st.text("abcñ", max_size=12)))
_candidate = st.builds(CandidateSpan, st.integers(0, 3000), st.integers(1, 6), _hostile_text, _hostile_text)
_aligned = st.builds(AlignedEntity,
                     st.builds(EntityAnnotation, _hostile_text, st.sampled_from(list(EntityCategory)),
                               st.integers(0, 10**6), st.integers(0, 10**6)),
                     st.one_of(st.none(), _candidate), _score, st.booleans(), _hostile_text)


@given(_hostile_text, _aligned)
def test_align_record_template_matches_the_generic_rendering(sample_id, ae):
    line = align_record(sample_id, ae)
    assert line == reference_record_json(sample_id, ae)
    assert json.loads(line)["entity"]["text"] == ae.entity.text


@needs_fork
@pytest.mark.parametrize("run", [evaluate_corpus, align_corpus])
@pytest.mark.parametrize("cpus, n_samples, processes", [
    (3, 5, 3),      # clamped to the usable CPUs
    (8, 5, 5),      # clamped to the samples
    (None, 5, None),  # unknown CPU count: no fork at all
])
def test_worker_count_is_clamped(monkeypatch, forks, run, cpus, n_samples, processes):
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None if cpus is None else 64)
    pairs, annotations = synthetic_corpus(n_samples, seed=4, tokens_per_sample=8)
    sharded = run(pairs, annotations, RunConfig(workers=10000))
    assert len(forks) == (processes or 1) - 1
    assert sharded == run(pairs, annotations, RunConfig(workers=1))


@pytest.mark.parametrize("run", [evaluate_corpus, align_corpus])
def test_workers_are_clamped_to_the_cpus_this_process_may_run_on(monkeypatch, run):
    # `taskset -c 0`: os.cpu_count() still counts every CPU of the machine
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    forks = []

    def fork():
        forks.append(1)
        raise AssertionError("forked on a process that may use one CPU")

    monkeypatch.setattr(os, "fork", fork)
    pairs, annotations = synthetic_corpus(5, seed=4, tokens_per_sample=8)
    assert run(pairs, annotations, RunConfig(workers=4)) == run(pairs, annotations, RunConfig(workers=1))
    assert forks == []


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_align_corpus_only_aligns(request, monkeypatch, workers):
    pairs, annotations = synthetic_corpus(6, seed=4, tokens_per_sample=8)
    expected = align_corpus(pairs, annotations, RunConfig())
    if workers > 1:  # shard on a one-CPU host too, one child at a time
        request.getfixturevalue("forks")
        two_cpus(monkeypatch)

    def scoring(*args):
        raise AssertionError("align_corpus scored a sample")

    for name in ("_eval_task", "wer", "medical_wer", "medical_cer", "entity_recall"):
        monkeypatch.setattr(runner, name, scoring)
    assert align_corpus(pairs, annotations, RunConfig(workers=workers)) == expected


@needs_fork
@seed(25)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(items=st.lists(st.integers(), max_size=9), workers=st.integers(1, 4))
def test_run_shards_is_a_map_over_contiguous_ranges(monkeypatch, forks, items, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    forked = len(forks)

    def double(x):
        return x * 2, os.getpid()

    mapped = runner._run_shards(double, items, workers)
    # list(map(double, items)), where the parent maps the first range and
    # the k-th child the k-th range after it
    shards = min(workers, len(items), 4)
    assert len(forks) - forked == max(shards - 1, 0)
    mappers = [os.getpid(), *forks[forked:]]
    bounds = [len(items) * k // max(shards, 1) for k in range(shards + 1)]
    assert mapped == [(x * 2, mappers[k]) for k in range(shards) for x in items[bounds[k]:bounds[k + 1]]]


@needs_fork
def test_a_child_that_exits_without_a_result_names_its_exit_code(monkeypatch, forks):
    two_cpus(monkeypatch)
    parent = os.getpid()

    def exit_in_a_child(x):
        if os.getpid() != parent:
            os._exit(7)
        return x

    with pytest.raises(ChildProcessError, match=r"exited with code 7 and sent no result"):
        runner._run_shards(exit_in_a_child, range(4), 2)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_without_fork_the_run_is_serial(monkeypatch):
    two_cpus(monkeypatch)
    monkeypatch.delattr(os, "fork", raising=False)
    pairs, annotations = synthetic_corpus(6, seed=4, tokens_per_sample=8)
    assert (align_corpus(pairs, annotations, RunConfig(workers=2))
            == align_corpus(pairs, annotations, RunConfig(workers=1)))


CLI_RUNS = {
    "align": ["align"],
    "per-sample-json": ["evaluate", "--per-sample"],
    "grouped-json": ["evaluate", "--group-by", "model,accent"],
    "csv": ["evaluate", "--format", "csv", "--per-sample"],
    "table": ["evaluate", "--format", "table", "--group-by", "model,accent"],
}


@needs_fork
@pytest.mark.parametrize("corpus", ["golden", "synthetic"])
@pytest.mark.parametrize("command", CLI_RUNS.values(), ids=CLI_RUNS.keys())
def test_cli_output_does_not_depend_on_the_worker_count(monkeypatch, tmp_path, corpus, command):
    two_cpus(monkeypatch)
    pairs, annotations = load_golden() if corpus == "golden" else synthetic_corpus(
        40, seed=11, tokens_per_sample=16)
    manifest, annotation_path = dump_corpus(tmp_path, pairs, annotations)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert cli.main([command[0], "--manifest", str(manifest), "--annotations", str(annotation_path),
                         "--workers", str(workers), "--out", str(out), *command[1:]]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class ShardFailure(Exception):
    pass


@needs_fork
@pytest.mark.parametrize("run, order", [
    (evaluate_corpus, lambda pairs: pairs),
    (align_corpus, lambda pairs: sorted(pairs, key=lambda p: p.id)),
], ids=["evaluate", "align"])
@pytest.mark.parametrize("shard", ["parent", "child"])
def test_a_failing_range_re_raises_after_every_child_is_reaped(monkeypatch, run, order, shard):
    two_cpus(monkeypatch)
    pairs, annotations = load_golden()
    ordered = order(pairs)
    half = len(ordered) // 2
    bad = (ordered[:half] if shard == "parent" else ordered[half:])[0].id
    bad_entity = annotations[bad].entities[0]
    real_align = runner.med_text_align

    def failing_align(entities, *args):
        if any(e is bad_entity for e in entities):
            raise ShardFailure(bad)
        return real_align(entities, *args)

    monkeypatch.setattr(runner, "med_text_align", failing_align)
    with pytest.raises(ShardFailure, match=bad):
        run(pairs, annotations, RunConfig(workers=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
