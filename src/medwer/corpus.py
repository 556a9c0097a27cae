"""Corpus file formats, ingestion with validation, and report writing.

Manifests and annotations are line-delimited JSON. A manifest record holds
`id`, `reference`, `hypothesis` and optional `accent`, `domain`, `model`.
An annotation record holds `id` and `entities`, each entity with `text`,
`category`, `begin`, `end` and an optional `score`; offsets are code-point
based and validated against the paired reference text. A `score`, when
present, must lie in [0, 1]; it is validated, then ignored. Both files are
UTF-8 text; a leading byte-order mark is accepted. A JSON escape of a lone
surrogate is rejected: it is not Unicode text, and no report could be
written from it.

Reports are written as json, csv, or a human-readable table; nothing reads
them back. Output is byte-identical for identical inputs: field order is
fixed and every rate is rendered with four decimals (half-even, via standard
float formatting). In a json report, each per_sample row comes from one
fixed template. It gives the bytes that the generic writer of the rest of
the report would give, at about a fifth of the cost.
"""

import csv
import io
import json
import logging
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .align import EntityAnnotation, EntityCategory
from .metrics import CorpusMetrics, EditCounts, RecallCount, SampleMetrics
from .textnorm import normalize

log = logging.getLogger(__name__)

REPORT_FORMATS = ("json", "csv", "table")

# Table layout lists recall columns in MED/ANA/COND/TTP/PHI order.
TABLE_RECALL_ORDER = (EntityCategory.MED, EntityCategory.ANA, EntityCategory.COND,
                      EntityCategory.TTP, EntityCategory.PHI)

# External category labels accepted at ingestion, mapped to the paper's
# five categories.
DEFAULT_CATEGORY_MAP = {
    "MEDICATION": EntityCategory.MED,
    "MEDICAL_CONDITION": EntityCategory.COND,
    "ANATOMY": EntityCategory.ANA,
    "TEST_TREATMENT_PROCEDURE": EntityCategory.TTP,
    "PROTECTED_HEALTH_INFORMATION": EntityCategory.PHI,
    **{c.value: c for c in EntityCategory},
}


class IngestionError(Exception):
    """A corpus file failed validation."""


class ManifestError(IngestionError):
    pass


class AnnotationError(IngestionError):
    pass


@dataclass(frozen=True)
class TranscriptPair:
    """One evaluation sample: reference transcript and ASR hypothesis."""

    id: str
    reference: str
    hypothesis: str
    accent: str | None = None
    domain: str | None = None
    model: str | None = None


@dataclass(frozen=True)
class AnnotationSet:
    id: str
    entities: tuple[EntityAnnotation, ...]


def _iter_jsonl(path, kind: str, err: type[IngestionError]):
    try:
        handle = open(path, encoding="utf-8-sig")
    except OSError as e:
        raise err(f"cannot read {kind} {path}: {e.strerror or e}") from e
    # text mode keeps the universal-newline line splitting; a bad byte
    # surfaces while a line is read, so the whole loop is guarded
    with handle:
        try:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise err(f"{path}:{lineno}: malformed JSON: {e.msg}") from e
                if not isinstance(record, dict):
                    raise err(f"{path}:{lineno}: expected an object, got {type(record).__name__}")
                # only a \u escape can put a lone surrogate into decoded text
                if "\\u" in line:
                    try:
                        json.dumps(record, ensure_ascii=False).encode("utf-8")
                    except UnicodeEncodeError:
                        raise err(f"{path}:{lineno}: a \\u escape encodes a lone surrogate, "
                                  "which is not Unicode text") from None
                yield lineno, record
        except UnicodeDecodeError as e:
            raise err(f"cannot read {kind} {path}: not UTF-8 text ({e.reason})") from e


# What dict.get returns for a missing field; JSON cannot produce it.
_MISSING = object()
_BY_OFFSETS = attrgetter("begin", "end")


def _missing(record: dict, keys: tuple[str, ...], where: str, err: type[IngestionError]):
    """Raise for the first of keys that record lacks."""
    key = next(k for k in keys if k not in record)
    raise err(f"{where}: missing required field {key!r}")


def load_manifest(path) -> list[TranscriptPair]:
    """Read transcript pairs in file order; ids must be unique and references non-empty."""
    pairs = []
    seen: dict[str, int] = {}
    duplicates = []
    for lineno, record in _iter_jsonl(path, "manifest", ManifestError):
        where = f"{path}:{lineno}"
        # JSON yields exact types, so type() tests stand for isinstance()
        get = record.get
        pid, reference, hypothesis = get("id", _MISSING), get("reference", _MISSING), get("hypothesis", _MISSING)
        if pid is _MISSING or reference is _MISSING or hypothesis is _MISSING:
            _missing(record, ("id", "reference", "hypothesis"), where, ManifestError)
        if type(pid) is not str or not pid:
            raise ManifestError(f"{where}: field 'id' must be a non-empty string")
        if type(reference) is not str or not reference:
            raise ManifestError(f"{where}: field 'reference' must be a non-empty string")
        if type(hypothesis) is not str:
            raise ManifestError(f"{where}: field 'hypothesis' must be a string")
        accent, domain, model = get("accent"), get("domain"), get("model")
        for key, value in (("accent", accent), ("domain", domain), ("model", model)):
            if value is not None and type(value) is not str:
                raise ManifestError(f"{where}: field {key!r} must be a string when present")
        if pid in seen:
            duplicates.append(f"{pid!r} (lines {seen[pid]} and {lineno})")
        else:
            seen[pid] = lineno
        pairs.append(TranscriptPair(pid, reference, hypothesis, accent, domain, model))
    if duplicates:
        raise ManifestError(f"{path}: duplicate id(s): {', '.join(duplicates)}")
    return pairs


def load_annotations(path, manifest: list[TranscriptPair], strict: bool = False,
                     normalization: str = "standard") -> dict[str, AnnotationSet]:
    """Read entity annotations and validate them against the manifest.

    Annotations for ids absent from the manifest are skipped with a warning;
    under strict mode they are rejected, and so is a manifest id with no
    annotation record. Offset or category problems are always errors, and so
    is an entity that normalizes to nothing under the run's normalization.
    """
    references = {p.id: p.reference for p in manifest}
    out: dict[str, AnnotationSet] = {}
    kept: set[str] = set()  # entity texts seen to normalize to something
    for lineno, record in _iter_jsonl(path, "annotations", AnnotationError):
        where = f"{path}:{lineno}"
        record_id = record.get("id", _MISSING)
        if record_id is _MISSING:
            raise AnnotationError(f"{where}: missing required field 'id'")
        if type(record_id) is not str:
            raise AnnotationError(f"{where}: field 'id' must be a string, got {type(record_id).__name__}")
        raw_entities = record.get("entities", _MISSING)
        if raw_entities is _MISSING:
            raise AnnotationError(f"{where}: missing required field 'entities'")
        reference = references.get(record_id)
        if reference is None:
            if strict:
                raise AnnotationError(f"{where}: annotation for unknown id {record_id!r}")
            log.warning("%s: skipping annotation for unknown id %r", where, record_id)
            continue
        if record_id in out:
            raise AnnotationError(f"{where}: duplicate annotation for id {record_id!r}")
        if type(raw_entities) is not list:
            raise AnnotationError(f"{where}: 'entities' must be a list")
        entities = []
        for raw in raw_entities:
            if type(raw) is not dict:
                raise AnnotationError(f"{where}: each entity must be an object, got {type(raw).__name__}")
            get = raw.get
            text, label, begin, end = get("text", _MISSING), get("category", _MISSING), \
                get("begin", _MISSING), get("end", _MISSING)
            if text is _MISSING or label is _MISSING or begin is _MISSING or end is _MISSING:
                _missing(raw, ("text", "category", "begin", "end"), where, AnnotationError)
            if type(text) is not str or type(label) is not str:
                raise AnnotationError(f"{where}: entity 'text' and 'category' must be strings")
            if type(begin) is not int or type(end) is not int:
                raise AnnotationError(f"{where}: entity offsets must be integers")
            category = DEFAULT_CATEGORY_MAP.get(label)
            if category is None:
                raise AnnotationError(f"{where}: unknown category {label!r} for id {record_id!r} "
                                      f"(known: {', '.join(sorted(DEFAULT_CATEGORY_MAP))})")
            if not 0 <= begin < end <= len(reference):
                raise AnnotationError(f"{where}: entity offsets [{begin}, {end}) out of range "
                                      f"for id {record_id!r}")
            if reference[begin:end] != text:
                raise AnnotationError(f"{where}: offset mismatch for id {record_id!r}: "
                                      f"reference[{begin}:{end}] is {reference[begin:end]!r} "
                                      f"but annotation says {text!r}")
            if text not in kept:
                if not normalize(text, normalization):
                    raise AnnotationError(f"{where}: entity {text!r} for id {record_id!r} normalizes to nothing")
                kept.add(text)
            score = get("score")
            if score is not None and (type(score) is not int and type(score) is not float
                                      or not 0 <= score <= 1):
                raise AnnotationError(f"{where}: entity score must be a number in [0, 1]")
            entities.append(EntityAnnotation(text, category, begin, end))
        entities.sort(key=_BY_OFFSETS)
        out[record_id] = AnnotationSet(record_id, tuple(entities))
    if strict:
        missing = [p.id for p in manifest if p.id not in out]
        if missing:
            raise AnnotationError(f"missing annotations for id(s): {', '.join(repr(m) for m in missing)}")
    return out


# --- report serialization ---------------------------------------------------


def _format_float(value: float) -> str:
    # four decimals, IEEE round-half-even via standard formatting; NaN -> null
    if math.isnan(value):
        return "null"
    return f"{value:.4f}"


def _dump_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_dump_json(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)


def _edit_counts_dict(counts: EditCounts, macro: float | None = None) -> dict:
    out = {
        "substitutions": counts.substitutions,
        "insertions": counts.insertions,
        "deletions": counts.deletions,
        "hits": counts.hits,
        "ref_len": counts.ref_len,
        "rate": counts.rate,
    }
    if macro is not None:
        out["macro_rate"] = macro
    return out


def _recall_dict(recall: dict[EntityCategory, RecallCount],
                 macro: dict[EntityCategory, float] | None = None) -> dict:
    out = {}
    for cat in EntityCategory:
        if cat not in recall:
            continue
        rc = recall[cat]
        entry = {"recalled": rc.recalled, "total": rc.total, "rate": rc.rate}
        if macro is not None:
            entry["macro_rate"] = macro.get(cat, math.nan)
        out[cat.value] = entry
    return out


def _corpus_dict(corpus: CorpusMetrics) -> dict:
    return {
        "wer": _edit_counts_dict(corpus.wer, corpus.macro_wer),
        "mwer": _edit_counts_dict(corpus.mwer, corpus.macro_mwer),
        "mcer": _edit_counts_dict(corpus.mcer, corpus.macro_mcer),
        "recall": _recall_dict(corpus.recall, corpus.macro_recall),
        "samples": corpus.samples,
        "skipped_zero_entity": corpus.skipped_zero_entity,
        "skipped_zero_word": corpus.skipped_zero_word,
    }


def _counts_json(counts: EditCounts) -> str:
    return (f'{{\n        "substitutions": {counts.substitutions},\n'
            f'        "insertions": {counts.insertions},\n'
            f'        "deletions": {counts.deletions},\n'
            f'        "hits": {counts.hits},\n'
            f'        "ref_len": {counts.ref_len},\n'
            f'        "rate": {_format_float(counts.rate)}\n      }}')


def _sample_json(sample: SampleMetrics) -> str:
    """One per_sample row as _dump_json renders it at depth 2, from a fixed
    template; _oracles.reference_sample_json is the generic rendering."""
    recall = ",\n".join(f'        "{cat.value}": {{\n'
                        f'          "recalled": {rc.recalled},\n'
                        f'          "total": {rc.total},\n'
                        f'          "rate": {_format_float(rc.rate)}\n        }}'
                        for cat in EntityCategory if (rc := sample.recall.get(cat)) is not None)
    recall = f"{{\n{recall}\n      }}" if recall else "{}"
    return (f'    {{\n      "id": {json.dumps(sample.sample_id)},\n'
            f'      "wer": {_counts_json(sample.wer)},\n'
            f'      "mwer": {_counts_json(sample.mwer)},\n'
            f'      "mcer": {_counts_json(sample.mcer)},\n'
            f'      "recall": {recall}\n    }}')


def render_json(corpus: CorpusMetrics, per_sample: list[SampleMetrics] | None,
                config: dict | None, groups: dict[str, CorpusMetrics] | None) -> str:
    doc: dict = {}
    if config is not None:
        doc["config"] = {
            "threshold": float(config["threshold"]),
            "max_ngram": int(config["max_ngram"]),
            "normalization": str(config["normalization"]),
        }
    doc["corpus"] = _corpus_dict(corpus)
    if groups:
        doc["groups"] = {key: _corpus_dict(groups[key]) for key in sorted(groups)}
    items = [f"  {json.dumps(key)}: {_dump_json(value, 1)}" for key, value in doc.items()]
    if per_sample is not None:
        rows = ",\n".join(map(_sample_json, per_sample))
        items.append(f'  "per_sample": [\n{rows}\n  ]' if per_sample else '  "per_sample": []')
    return "{\n" + ",\n".join(items) + "\n}\n"


_CSV_RATE = lambda v: "" if math.isnan(v) else f"{v:.4f}"


def render_csv(corpus: CorpusMetrics, per_sample: list[SampleMetrics] | None) -> str:
    header = ["id"]
    for metric in ("wer", "mwer", "mcer"):
        header += [f"{metric}_{f}" for f in ("substitutions", "insertions", "deletions",
                                             "hits", "ref_len", "rate")]
    for cat in EntityCategory:
        header += [f"recall_{cat.value}_recalled", f"recall_{cat.value}_total", f"recall_{cat.value}_rate"]

    def row(label: str, werc: EditCounts, mwerc: EditCounts, mcerc: EditCounts,
            recall: dict[EntityCategory, RecallCount]) -> list:
        cells: list = [label]
        for counts in (werc, mwerc, mcerc):
            cells += [counts.substitutions, counts.insertions, counts.deletions,
                      counts.hits, counts.ref_len, _CSV_RATE(counts.rate)]
        for cat in EntityCategory:
            rc = recall.get(cat)
            if rc is None:
                cells += ["", "", ""]
            else:
                cells += [rc.recalled, rc.total, _CSV_RATE(rc.rate)]
        return cells

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for sample in per_sample or []:
        writer.writerow(row(sample.sample_id, sample.wer, sample.mwer, sample.mcer, sample.recall))
    writer.writerow(row("corpus", corpus.wer, corpus.mwer, corpus.mcer, corpus.recall))
    return buf.getvalue()


def render_table(corpus: CorpusMetrics, groups: dict[str, CorpusMetrics] | None) -> str:
    header = ["", "samples", "WER", "M-WER", "M-CER"] + [c.value for c in TABLE_RECALL_ORDER]

    def cells(label: str, m: CorpusMetrics) -> list[str]:
        out = [label, str(m.samples)]
        for counts in (m.wer, m.mwer, m.mcer):
            out.append("-" if math.isnan(counts.rate) else f"{counts.rate:.4f}")
        for cat in TABLE_RECALL_ORDER:
            rc = m.recall.get(cat)
            out.append("-" if rc is None or rc.total == 0 else f"{rc.rate:.4f}")
        return out

    rows = [header, cells("corpus", corpus)]
    for key in sorted(groups or {}):
        rows.append(cells(key, groups[key]))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                               for i, cell in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"


def write_report(corpus: CorpusMetrics, per_sample: list[SampleMetrics] | None,
                 fmt: str, path, config: dict | None = None,
                 groups: dict[str, CorpusMetrics] | None = None) -> None:
    """Render and write a report; path may be a filesystem path or a text stream."""
    if fmt == "json":
        text = render_json(corpus, per_sample, config, groups)
    elif fmt == "csv":
        text = render_csv(corpus, per_sample)
    elif fmt == "table":
        text = render_table(corpus, groups)
    else:
        raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
