"""Output checks, run outside every timed region.

Each check returns a list of problems; an empty list means the output is
correct. The oracles come from `medwer._oracles`, which shares no code with
the fast paths they check.
"""

import json
import random

from medwer._oracles import dp_distance, naive_similarity
from medwer.align import ground_truth_sequence, med_text_align, recovered_sequence
from medwer.textnorm import normalize

from corpora import LETTER_MAP, Corpus

# Samples per run whose counts and scores are recomputed by the oracles.
ORACLE_SUBSET = 12


def _subset(pairs, seed: int):
    rng = random.Random(seed)
    return rng.sample(pairs, min(ORACLE_SUBSET, len(pairs)))


def _score_problems(aligned, where: str) -> list[str]:
    problems = []
    for ae in aligned:
        want = 0.0 if ae.candidate is None else naive_similarity(normalize(ae.entity.text),
                                                                 ae.candidate.normalized)
        if ae.score != want:
            problems.append(f"{where}: score {ae.score} for {ae.entity.text!r}, oracle {want}")
    return problems


def _counts_problems(row: dict, name: str, errors: int, ref_len: int, where: str) -> list[str]:
    got = row[name]
    got_errors = got["substitutions"] + got["insertions"] + got["deletions"]
    if (got_errors, got["ref_len"]) != (errors, ref_len):
        return [f"{where}: {name} {got_errors}/{got['ref_len']}, oracle {errors}/{ref_len}"]
    return []


def check_report(text: str, corpus: Corpus, per_sample: bool, seed: int) -> list[str]:
    """A json evaluate report: shape, sample count, oracle counts on a seeded subset."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"report is not JSON: {e}"]
    n = len(corpus.pairs)
    if doc["corpus"]["samples"] != n:
        return [f"report has {doc['corpus']['samples']} samples, expected {n}"]
    if per_sample:
        rows = {row["id"]: row for row in doc.get("per_sample", [])}
        if [row["id"] for row in doc.get("per_sample", [])] != [p.id for p in corpus.pairs]:
            return ["per-sample rows do not follow the manifest"]
    elif n == 1:
        rows = {corpus.pairs[0].id: doc["corpus"]}
    else:
        rows = {}

    problems = []
    for pair in _subset([p for p in corpus.pairs if p.id in rows], seed):
        entities = list(corpus.annotations[pair.id].entities)
        aligned = med_text_align(entities, pair.hypothesis)
        problems += _score_problems(aligned, pair.id)
        gt, rec = ground_truth_sequence(aligned), recovered_sequence(aligned)
        ref_words = normalize(pair.reference).split()
        row = rows[pair.id]
        problems += _counts_problems(row, "wer", dp_distance(ref_words, normalize(pair.hypothesis).split()),
                                     len(ref_words), pair.id)
        problems += _counts_problems(row, "mwer", dp_distance(gt.split(), rec.split()),
                                     len(gt.split()), pair.id)
        problems += _counts_problems(row, "mcer", dp_distance(gt, rec), len(gt), pair.id)
    return problems


def _mapped(record: dict) -> dict:
    """A record of the unmapped corpus as the letter-mapped corpus must give it:
    LETTER_MAP applied to the entity text and the candidate's surface and
    normalized form, the only fields that carry corpus letters."""
    entity = dict(record["entity"], text=record["entity"]["text"].translate(LETTER_MAP))
    candidate = record["candidate"]
    if candidate is not None:
        candidate = dict(candidate, surface=candidate["surface"].translate(LETTER_MAP),
                         normalized=candidate["normalized"].translate(LETTER_MAP))
    return dict(record, entity=entity, candidate=candidate)


def check_align(text: str, corpus: Corpus, plain_text: str, seed: int) -> list[str]:
    """Align records of a letter-mapped corpus: one per entity in (id, begin)
    order, oracle scores on a seeded subset, and equal to plain_text, the
    records of the unmapped corpus, with their letters mapped forward."""
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as e:
        return [f"align output is not JSONL: {e}"]
    expected = [(pair.id, e.text) for pair in sorted(corpus.pairs, key=lambda p: p.id)
                for e in corpus.annotations[pair.id].entities]
    if [(r["id"], r["entity"]["text"]) for r in records] != expected:
        return [f"align records do not follow the annotations ({len(records)} records, "
                f"{len(expected)} entities)"]

    problems = []
    subset = {pair.id for pair in _subset(corpus.pairs, seed)}
    for r in records:
        if r["id"] in subset:
            want = 0.0 if r["candidate"] is None else naive_similarity(
                normalize(r["entity"]["text"]), r["candidate"]["normalized"])
            if r["score"] != want:
                problems.append(f"{r['id']}: score {r['score']} for {r['entity']['text']!r}, oracle {want}")
    expected_records = [_mapped(json.loads(line)) for line in plain_text.splitlines()]
    differ = [i for i, (a, b) in enumerate(zip(records, expected_records)) if a != b]
    if differ or len(expected_records) != len(records):
        problems.append(f"{len(differ)} align records differ from the unmapped corpus's "
                        f"({len(expected_records)} records) mapped forward, first at index {differ[:1]}")
    return problems
