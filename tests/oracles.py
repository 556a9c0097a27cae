"""Naive references that only the tests compare against.

Like medwer._oracles, nothing here shares code with the modules it checks.
all_alignments_distance and the two LCS lengths bound the edit distance and
the similarity ratio from first principles. reference_report_json builds a
whole JSON report as one dict and renders it with a generic writer, the
reference for the report's fixed block templates; reference_record_json
writes an `align` record's dict with json.dumps, the reference for the
fixed record template. reference_corpus aggregates reference_sample's
results, with exact macro means.
"""

import json
import math
from fractions import Fraction
from typing import NamedTuple

from medwer.align import EntityCategory


def all_alignments_distance(ref, hyp):
    """Minimum unit cost over every alignment, by plain recursion.

    Exponential; intended for sequences of length <= ~8.
    """
    def walk(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        best = (0 if ref[i] == hyp[j] else 1) + walk(i + 1, j + 1)
        down = 1 + walk(i + 1, j)
        if down < best:
            best = down
        right = 1 + walk(i, j + 1)
        if right < best:
            best = right
        return best

    return walk(0, 0)


def lcs_substring_length(a, b):
    """Length of the longest common contiguous substring (DP table)."""
    best = 0
    prev = [0] * (len(b) + 1)
    for i in range(len(a)):
        cur = [0] * (len(b) + 1)
        for j in range(len(b)):
            if a[i] == b[j]:
                cur[j + 1] = prev[j] + 1
                if cur[j + 1] > best:
                    best = cur[j + 1]
        prev = cur
    return best


def lcs_subsequence_length(a, b):
    """Length of the longest common (not necessarily contiguous) subsequence."""
    prev = [0] * (len(b) + 1)
    for i in range(len(a)):
        cur = [0] * (len(b) + 1)
        for j in range(len(b)):
            cur[j + 1] = prev[j] + 1 if a[i] == b[j] else max(prev[j + 1], cur[j])
        prev = cur
    return prev[-1]


def _reference_json(value, depth=0):
    """Generic JSON: two-space indents, floats to four decimals, NaN as null,
    anything else through json.dumps."""
    if isinstance(value, float):
        return "null" if math.isnan(value) else f"{value:.4f}"
    if isinstance(value, dict):
        items = [f"{json.dumps(key)}: {_reference_json(item, depth + 1)}" for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, list):
        items = [_reference_json(item, depth + 1) for item in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    inner = "  " * (depth + 1)
    return brackets[0] + "\n" + ",\n".join(inner + item for item in items) + "\n" + "  " * depth + brackets[1]


_COUNT_FIELDS = ("substitutions", "insertions", "deletions", "hits", "ref_len", "rate")


def _counts_dict(counts):
    return {name: getattr(counts, name) for name in _COUNT_FIELDS}


def _recall_dict(recall):
    return {cat.value: {"recalled": recall[cat].recalled, "total": recall[cat].total, "rate": recall[cat].rate}
            for cat in EntityCategory if cat in recall}


def _metrics_dict(m):
    """A corpus or group block: counts and recall with their macro rates."""
    return {
        "wer": {**_counts_dict(m.wer), "macro_rate": m.macro_wer},
        "mwer": {**_counts_dict(m.mwer), "macro_rate": m.macro_mwer},
        "mcer": {**_counts_dict(m.mcer), "macro_rate": m.macro_mcer},
        "recall": {label: {**entry, "macro_rate": m.macro_recall.get(EntityCategory(label), math.nan)}
                   for label, entry in _recall_dict(m.recall).items()},
        "samples": m.samples,
        "skipped_zero_entity": m.skipped_zero_entity,
        "skipped_zero_word": m.skipped_zero_word,
    }


def reference_report_json(corpus, per_sample, cfg, groups):
    """A whole JSON report, built as one dict (per_sample as a list) and
    rendered by the generic writer."""
    doc = {"config": {"threshold": float(cfg.threshold), "max_ngram": cfg.max_ngram,
                      "normalization": cfg.normalization},
           "corpus": _metrics_dict(corpus)}
    if groups:
        doc["groups"] = {key: _metrics_dict(groups[key]) for key in sorted(groups)}
    if per_sample is not None:
        doc["per_sample"] = [{"id": s.sample_id, "wer": _counts_dict(s.wer), "mwer": _counts_dict(s.mwer),
                              "mcer": _counts_dict(s.mcer), "recall": _recall_dict(s.recall)}
                             for s in per_sample]
    return _reference_json(doc) + "\n"


def reference_record_json(sample_id, ae):
    """One alignment record, as a JSON line rendered from a dict by json.dumps."""
    candidate = None
    if ae.candidate is not None:
        candidate = {
            "surface": ae.candidate.surface,
            "normalized": ae.candidate.normalized,
            "start_token": ae.candidate.start_token,
            "length_tokens": ae.candidate.length_tokens,
        }
    return json.dumps({
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
    }) + "\n"


class ReferenceCorpus(NamedTuple):
    """A corpus record from summed counts. A macro mean is an exact Fraction,
    or None where no sample counts toward it."""

    wer: tuple  # (substitutions, insertions, deletions, hits, ref_len), as are mwer and mcer
    mwer: tuple
    mcer: tuple
    recall: dict  # category -> (recalled, total)
    samples: int
    skipped_zero_entity: int
    skipped_zero_word: int
    macro_wer: Fraction | None
    macro_mwer: Fraction | None
    macro_mcer: Fraction | None
    macro_recall: dict  # category -> Fraction


def reference_corpus(samples):
    """Aggregate a list of medwer._oracles.ReferenceSample: counts summed over
    the samples whose reference side is not empty (its words for WER, its
    entity text for M-WER and M-CER, and each category's entities for
    recall), and the mean of those samples' rates in exact arithmetic."""
    worded = [s for s in samples if s.wer[4] > 0]
    entitied = [s for s in samples if s.mwer[4] > 0]

    def total(rows):
        return tuple(map(sum, zip(*rows))) if rows else (0,) * 5

    def mean(rates):
        return sum(rates, Fraction(0)) / len(rates) if rates else None

    def macro(counts):
        return mean([Fraction(sum(c[:3]), c[4]) for c in counts])

    recall = {}
    for sample in samples:
        for category, count in sample.recall.items():
            recall.setdefault(category, []).append(count)
    return ReferenceCorpus(
        total([s.wer for s in worded]), total([s.mwer for s in entitied]), total([s.mcer for s in entitied]),
        {category: tuple(map(sum, zip(*counts))) for category, counts in recall.items()},
        len(samples), len(samples) - len(entitied), len(samples) - len(worded),
        macro([s.wer for s in worded]), macro([s.mwer for s in entitied]), macro([s.mcer for s in entitied]),
        {category: mean([Fraction(*count) for count in counts]) for category, counts in recall.items()})
