"""Corpus file formats, ingestion with validation, and report persistence.

Manifests and annotations are line-delimited JSON. A manifest record holds
`id`, `reference`, `hypothesis` and optional `accent`, `domain`, `model`.
An annotation record holds `id` and `entities`, each entity with `text`,
`category`, `begin`, `end` and an optional `score`; offsets are code-point
based and validated against the paired reference text.

Reports are written as json, csv, or a human-readable table. Output is
byte-identical for identical inputs: field order is fixed and every rate is
rendered with four decimals (half-even, via standard float formatting).
"""

import csv
import io
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from .align import EntityAnnotation, EntityCategory
from .metrics import CorpusMetrics, EditCounts, RecallCount, SampleMetrics
from .textnorm import normalize

log = logging.getLogger(__name__)

REPORT_FORMATS = ("json", "csv", "table")

# Table layout lists recall columns in MED/ANA/COND/TTP/PHI order.
TABLE_RECALL_ORDER = (EntityCategory.MED, EntityCategory.ANA, EntityCategory.COND,
                      EntityCategory.TTP, EntityCategory.PHI)

# External category labels accepted at ingestion. Extend via the
# category_map argument of the loaders.
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


class ReportError(IngestionError):
    """A json report could not be read back."""


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


class NerSource(Protocol):
    """Anything that can produce entity annotations for a transcript pair."""

    def annotate(self, pair: TranscriptPair) -> Sequence[EntityAnnotation]:
        ...


def _iter_jsonl(path, kind: str, err: type[IngestionError]):
    try:
        handle = open(path, encoding="utf-8")
    except OSError as e:
        raise err(f"cannot read {kind} {path}: {e.strerror or e}") from e
    with handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise err(f"{path}:{lineno}: malformed JSON: {e.msg}") from e
            if not isinstance(record, dict):
                raise err(f"{path}:{lineno}: expected an object, got {type(record).__name__}")
            yield lineno, record


def _require(record: dict, key: str, where: str, err: type[IngestionError]):
    if key not in record:
        raise err(f"{where}: missing required field {key!r}")
    return record[key]


def load_manifest(path) -> list[TranscriptPair]:
    """Read transcript pairs in file order; ids must be unique and references non-empty."""
    pairs = []
    seen: dict[str, int] = {}
    duplicates = []
    for lineno, record in _iter_jsonl(path, "manifest", ManifestError):
        where = f"{path}:{lineno}"
        pid = _require(record, "id", where, ManifestError)
        reference = _require(record, "reference", where, ManifestError)
        hypothesis = _require(record, "hypothesis", where, ManifestError)
        if not isinstance(pid, str) or not pid:
            raise ManifestError(f"{where}: field 'id' must be a non-empty string")
        if not isinstance(reference, str) or not reference:
            raise ManifestError(f"{where}: field 'reference' must be a non-empty string")
        if not isinstance(hypothesis, str):
            raise ManifestError(f"{where}: field 'hypothesis' must be a string")
        optional = {}
        for key in ("accent", "domain", "model"):
            value = record.get(key)
            if value is not None and not isinstance(value, str):
                raise ManifestError(f"{where}: field {key!r} must be a string when present")
            optional[key] = value
        if pid in seen:
            duplicates.append(f"{pid!r} (lines {seen[pid]} and {lineno})")
        else:
            seen[pid] = lineno
        pairs.append(TranscriptPair(pid, reference, hypothesis, **optional))
    if duplicates:
        raise ManifestError(f"{path}: duplicate id(s): {', '.join(duplicates)}")
    return pairs


def _parse_entity(raw: dict, reference: str, record_id: str, where: str,
                  category_map: dict[str, EntityCategory]) -> EntityAnnotation:
    text = _require(raw, "text", where, AnnotationError)
    label = _require(raw, "category", where, AnnotationError)
    begin = _require(raw, "begin", where, AnnotationError)
    end = _require(raw, "end", where, AnnotationError)
    if not isinstance(text, str) or not isinstance(label, str):
        raise AnnotationError(f"{where}: entity 'text' and 'category' must be strings")
    if not isinstance(begin, int) or not isinstance(end, int) or isinstance(begin, bool) or isinstance(end, bool):
        raise AnnotationError(f"{where}: entity offsets must be integers")
    category = category_map.get(label)
    if category is None:
        raise AnnotationError(f"{where}: unknown category {label!r} for id {record_id!r} "
                              f"(known: {', '.join(sorted(category_map))})")
    if not (0 <= begin < end <= len(reference)):
        raise AnnotationError(f"{where}: entity offsets [{begin}, {end}) out of range for id {record_id!r}")
    actual = reference[begin:end]
    if actual != text:
        raise AnnotationError(f"{where}: offset mismatch for id {record_id!r}: reference[{begin}:{end}] "
                              f"is {actual!r} but annotation says {text!r}")
    if not normalize(text):
        raise AnnotationError(f"{where}: entity {text!r} for id {record_id!r} normalizes to nothing")
    score = raw.get("score")
    if score is not None:
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not 0 <= score <= 1:
            raise AnnotationError(f"{where}: entity score must be a number in [0, 1]")
        score = float(score)
    return EntityAnnotation(text=text, category=category, begin=begin, end=end, score=score)


def _build_annotation_set(record_id: str, raw_entities, reference: str, where: str,
                          category_map: dict[str, EntityCategory]) -> AnnotationSet:
    if not isinstance(raw_entities, list):
        raise AnnotationError(f"{where}: 'entities' must be a list")
    entities = [_parse_entity(raw, reference, record_id, where, category_map)
                for raw in raw_entities]
    entities.sort(key=lambda e: (e.begin, e.end))
    return AnnotationSet(record_id, tuple(entities))


def load_annotations(path, manifest: list[TranscriptPair], strict: bool = False,
                     category_map: dict[str, EntityCategory] | None = None) -> dict[str, AnnotationSet]:
    """Read entity annotations and validate them against the manifest.

    Annotations for ids absent from the manifest are skipped with a warning,
    or rejected under strict mode. Offset or category problems are always
    errors.
    """
    cmap = dict(DEFAULT_CATEGORY_MAP)
    if category_map:
        cmap.update(category_map)
    references = {p.id: p.reference for p in manifest}
    out: dict[str, AnnotationSet] = {}
    for lineno, record in _iter_jsonl(path, "annotations", AnnotationError):
        where = f"{path}:{lineno}"
        record_id = _require(record, "id", where, AnnotationError)
        raw_entities = _require(record, "entities", where, AnnotationError)
        if record_id not in references:
            if strict:
                raise AnnotationError(f"{where}: annotation for unknown id {record_id!r}")
            log.warning("%s: skipping annotation for unknown id %r", where, record_id)
            continue
        if record_id in out:
            raise AnnotationError(f"{where}: duplicate annotation for id {record_id!r}")
        out[record_id] = _build_annotation_set(record_id, raw_entities,
                                               references[record_id], where, cmap)
    return out


class FileNerSource:
    """Annotation source backed by a prepared annotations file keyed by id.

    Lets the whole toolkit run offline; a live NER service is a drop-in
    replacement implementing the same annotate() contract.
    """

    def __init__(self, path, category_map: dict[str, EntityCategory] | None = None):
        self._path = path
        self._category_map = dict(DEFAULT_CATEGORY_MAP)
        if category_map:
            self._category_map.update(category_map)
        self._records: dict[str, tuple[int, list]] = {}
        for lineno, record in _iter_jsonl(path, "annotations", AnnotationError):
            where = f"{path}:{lineno}"
            record_id = _require(record, "id", where, AnnotationError)
            if record_id in self._records:
                raise AnnotationError(f"{where}: duplicate annotation for id {record_id!r}")
            self._records[record_id] = (lineno, _require(record, "entities", where, AnnotationError))

    def annotate(self, pair: TranscriptPair) -> Sequence[EntityAnnotation]:
        found = self._records.get(pair.id)
        if found is None:
            raise AnnotationError(f"{self._path}: no annotations for id {pair.id!r}")
        lineno, raw_entities = found
        where = f"{self._path}:{lineno}"
        return _build_annotation_set(pair.id, raw_entities, pair.reference,
                                     where, self._category_map).entities


def fetch_annotations(source: NerSource, pairs: list[TranscriptPair],
                      strict: bool = False) -> dict[str, AnnotationSet]:
    """Pull annotations from a source for every pair.

    Per-id failures are collected: strict mode raises with all of them,
    otherwise each is logged and the id omitted from the result.
    """
    out: dict[str, AnnotationSet] = {}
    failures: list[str] = []
    for pair in pairs:
        try:
            entities = tuple(source.annotate(pair))
        except IngestionError as e:
            failures.append(str(e))
            continue
        except Exception as e:  # any source fault costs that sample only
            log.debug("annotation source failed on %r", pair.id, exc_info=True)
            failures.append(f"annotation source failed on {pair.id!r}: {type(e).__name__}: {e}")
            continue
        out[pair.id] = AnnotationSet(pair.id, tuple(sorted(entities, key=lambda x: (x.begin, x.end))))
    if failures:
        if strict:
            raise AnnotationError("annotation source failures:\n  " + "\n  ".join(failures))
        for message in failures:
            log.warning("skipping sample: %s", message)
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
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [f"{inner}{_dump_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
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


def _sample_dict(sample: SampleMetrics) -> dict:
    return {
        "id": sample.sample_id,
        "wer": _edit_counts_dict(sample.wer),
        "mwer": _edit_counts_dict(sample.mwer),
        "mcer": _edit_counts_dict(sample.mcer),
        "recall": _recall_dict(sample.recall),
    }


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
    if per_sample is not None:
        doc["per_sample"] = [_sample_dict(s) for s in per_sample]
    return _dump_json(doc) + "\n"


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


# --- report loading (json only) ----------------------------------------------


@dataclass
class Report:
    config: dict | None
    corpus: CorpusMetrics
    per_sample: list[SampleMetrics] | None
    groups: dict[str, CorpusMetrics] | None


def _counts_from(obj: dict) -> EditCounts:
    return EditCounts(obj["substitutions"], obj["insertions"], obj["deletions"],
                      obj["hits"], obj["ref_len"])


def _macro_from(obj: dict) -> float:
    value = obj.get("macro_rate")
    return math.nan if value is None else float(value)


def _recall_from(obj: dict) -> dict[EntityCategory, RecallCount]:
    return {EntityCategory(name): RecallCount(entry["recalled"], entry["total"])
            for name, entry in obj.items()}


def _corpus_from(obj: dict) -> CorpusMetrics:
    return CorpusMetrics(
        wer=_counts_from(obj["wer"]),
        mwer=_counts_from(obj["mwer"]),
        mcer=_counts_from(obj["mcer"]),
        recall=_recall_from(obj["recall"]),
        samples=obj["samples"],
        skipped_zero_entity=obj["skipped_zero_entity"],
        skipped_zero_word=obj["skipped_zero_word"],
        macro_wer=_macro_from(obj["wer"]),
        macro_mwer=_macro_from(obj["mwer"]),
        macro_mcer=_macro_from(obj["mcer"]),
        macro_recall={EntityCategory(name): _macro_from(entry)
                      for name, entry in obj["recall"].items()},
    )


def load_report(path) -> Report:
    """Read back a json report; counts and rates survive a write/load/write cycle.

    Raises ReportError, naming the path, on malformed JSON or on a document
    that is not a report.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as e:
            raise ReportError(f"{path}: malformed JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ReportError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        per_sample = None
        if "per_sample" in doc:
            per_sample = [SampleMetrics(s["id"], _counts_from(s["wer"]), _counts_from(s["mwer"]),
                                        _counts_from(s["mcer"]), _recall_from(s["recall"]))
                          for s in doc["per_sample"]]
        groups = None
        if "groups" in doc:
            groups = {key: _corpus_from(value) for key, value in doc["groups"].items()}
        return Report(doc.get("config"), _corpus_from(doc["corpus"]), per_sample, groups)
    except KeyError as e:
        raise ReportError(f"{path}: not a medwer report: missing field {e.args[0]!r}") from e
    except (TypeError, ValueError, AttributeError) as e:
        raise ReportError(f"{path}: not a medwer report: {e}") from e
