"""Corpus file formats, ingestion with validation, and report writing.

Manifests and annotations are line-delimited JSON. A manifest record holds
`id`, `reference`, `hypothesis` and optional `accent`, `domain`, `model`.
An annotation record holds `id` and `entities`, each entity with `text`,
`category`, `begin`, `end` and an optional `score`; offsets are code-point
based and validated against the paired reference text. A `score`, when
present, must lie in [0, 1]; it is validated, then ignored. Both files are
UTF-8 text; a leading byte-order mark is accepted. A JSON escape of a lone
surrogate is rejected: it is not Unicode text, and no report could be
written from it. So is a line nested past the parser's depth limit or with
an integer past the interpreter's digit limit.

Every output byte is rendered here: json, csv or table reports, `align`
records and group labels; nothing reads them back. A json or csv report is
rendered in pieces, one per per-sample row, and write_output encodes and
writes each piece as it arrives, so no whole copy of the output is held.
Output is byte-identical for identical inputs, wherever it goes: it is
written as UTF-8 to a file or to stdout alike, field order is fixed and
every rate has four decimals (half-even, via standard float formatting).
Every json report block (config, corpus, groups, per_sample rows) and every
`align` record comes from a fixed template, which the tests check against a
generic rendering of its dict.
"""

import csv
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from .align import CATEGORIES, AlignedEntity, EntityAnnotation, EntityCategory
from .metrics import CorpusMetrics, EditCounts, RecallCount, SampleMetrics
from .textnorm import normalize

if TYPE_CHECKING:  # runner imports this module
    from .runner import RunConfig

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


# A dataclass, not a tuple: perfbench/corpora.py copies it with dataclasses.replace.
@dataclass(frozen=True)
class TranscriptPair:
    """One evaluation sample: reference transcript and ASR hypothesis."""

    id: str
    reference: str
    hypothesis: str
    accent: str | None = None
    domain: str | None = None
    model: str | None = None


# A dataclass, not a tuple: perfbench/corpora.py copies it with dataclasses.replace.
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
                except (ValueError, RecursionError) as e:
                    # RFC 8259 lets a parser limit nesting depth and number size
                    raise err(f"{path}:{lineno}: JSON beyond the parser's limits: {e}") from None
                if not isinstance(record, dict):
                    raise err(f"{path}:{lineno}: expected an object, got {type(record).__name__}")
                # only a \uD800-\uDFFF escape can decode to a lone surrogate
                if "\\u" in line and re.search(r"\\u[dD][89a-fA-F]", line):
                    try:
                        json.dumps(record, ensure_ascii=False).encode("utf-8")
                    except UnicodeEncodeError:
                        raise err(f"{path}:{lineno}: a \\u escape encodes a lone surrogate, "
                                  "which is not Unicode text") from None
                yield lineno, record
        except UnicodeDecodeError as e:
            raise err(f"cannot read {kind} {path}: not UTF-8 text ({e.reason})") from e


_BY_OFFSETS = attrgetter("begin", "end")


def load_manifest(path) -> list[TranscriptPair]:
    """Read transcript pairs in file order; ids must be unique and references non-empty."""
    pairs = []
    seen: dict[str, int] = {}
    duplicates = []
    for lineno, record in _iter_jsonl(path, "manifest", ManifestError):
        where = f"{path}:{lineno}"
        # JSON yields exact types, so type() tests stand for isinstance()
        try:
            pid, reference, hypothesis = record["id"], record["reference"], record["hypothesis"]
        except KeyError as e:
            raise ManifestError(f"{where}: missing required field {e.args[0]!r}") from None
        if type(pid) is not str or not pid:
            raise ManifestError(f"{where}: field 'id' must be a non-empty string")
        if type(reference) is not str or not reference:
            raise ManifestError(f"{where}: field 'reference' must be a non-empty string")
        if type(hypothesis) is not str:
            raise ManifestError(f"{where}: field 'hypothesis' must be a string")
        accent, domain, model = record.get("accent"), record.get("domain"), record.get("model")
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

    Annotations for ids absent from the manifest are skipped, each with a
    WARNING line on stderr; under strict mode they are rejected, and so is a
    manifest id with no annotation record. Offset or category problems are
    always errors, and so is an entity that normalizes to nothing under the
    run's normalization.
    """
    references = {p.id: p.reference for p in manifest}
    out: dict[str, AnnotationSet] = {}
    kept: set[str] = set()  # entity texts seen to normalize to something
    for lineno, record in _iter_jsonl(path, "annotations", AnnotationError):
        where = f"{path}:{lineno}"
        try:
            record_id = record["id"]
            if type(record_id) is not str:
                raise AnnotationError(f"{where}: field 'id' must be a string, got {type(record_id).__name__}")
            raw_entities = record["entities"]
        except KeyError as e:
            raise AnnotationError(f"{where}: missing required field {e.args[0]!r}") from None
        reference = references.get(record_id)
        if reference is None:
            if strict:
                raise AnnotationError(f"{where}: annotation for unknown id {record_id!r}")
            print(f"WARNING {where}: skipping annotation for unknown id {record_id!r}", file=sys.stderr)
            continue
        if record_id in out:
            raise AnnotationError(f"{where}: duplicate annotation for id {record_id!r}")
        if type(raw_entities) is not list:
            raise AnnotationError(f"{where}: 'entities' must be a list")
        entities = []
        for raw in raw_entities:
            if type(raw) is not dict:
                raise AnnotationError(f"{where}: each entity must be an object, got {type(raw).__name__}")
            try:
                text, label, begin, end = raw["text"], raw["category"], raw["begin"], raw["end"]
            except KeyError as e:
                raise AnnotationError(f"{where}: missing required field {e.args[0]!r}") from None
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
            score = raw.get("score")
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


# --- output serialization ---------------------------------------------------


def group_label(keys: tuple[str, ...], values: tuple[str, ...]) -> str:
    """key=value pairs joined by commas; a value holding a comma, an equals sign or a
    double quote is a JSON string literal, so distinct groups get distinct labels,
    and one that is not printable (a line break, a tab) is an ASCII-escaped one,
    so a table row stays on one line."""
    shown = (v if v.isprintable() and set(',="').isdisjoint(v)
             else json.dumps(v, ensure_ascii=not v.isprintable()) for v in values)
    return ",".join(f"{key}={value}" for key, value in zip(keys, shown))


def align_record(sample_id: str, ae: AlignedEntity) -> str:
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


def _rate(value: float, missing: str) -> str:
    """Four decimals, IEEE round-half-even via standard formatting; NaN, the
    rate of a zero total, is the format's missing value."""
    return missing if math.isnan(value) else f"{value:.4f}"


def _counts_json(counts: EditCounts, pad: str, macro: float | None = None) -> str:
    """Counts whose key sits on a line indented by pad; a macro adds macro_rate."""
    inner = pad + "  "
    tail = "" if macro is None else f',\n{inner}"macro_rate": {_rate(macro, "null")}'
    return (f'{{\n{inner}"substitutions": {counts.substitutions},\n'
            f'{inner}"insertions": {counts.insertions},\n'
            f'{inner}"deletions": {counts.deletions},\n'
            f'{inner}"hits": {counts.hits},\n'
            f'{inner}"ref_len": {counts.ref_len},\n'
            f'{inner}"rate": {_rate(counts.rate, "null")}{tail}\n{pad}}}')


def _recall_json(recall: dict[EntityCategory, RecallCount], pad: str,
                 macro: dict[EntityCategory, float] | None = None) -> str:
    inner, field = pad + "  ", pad + "    "
    entries = []
    for cat in CATEGORIES:
        if (rc := recall.get(cat)) is not None:
            tail = "" if macro is None else f',\n{field}"macro_rate": {_rate(macro.get(cat, math.nan), "null")}'
            entries.append(f'{inner}"{cat.value}": {{\n{field}"recalled": {rc.recalled},\n'
                           f'{field}"total": {rc.total},\n{field}"rate": {_rate(rc.rate, "null")}{tail}\n{inner}}}')
    return "{\n" + ",\n".join(entries) + f"\n{pad}}}" if entries else "{}"


def _metrics_json(m: CorpusMetrics, pad: str) -> str:
    inner = pad + "  "
    return (f'{{\n{inner}"wer": {_counts_json(m.wer, inner, m.macro_wer)},\n'
            f'{inner}"mwer": {_counts_json(m.mwer, inner, m.macro_mwer)},\n'
            f'{inner}"mcer": {_counts_json(m.mcer, inner, m.macro_mcer)},\n'
            f'{inner}"recall": {_recall_json(m.recall, inner, m.macro_recall)},\n'
            f'{inner}"samples": {m.samples},\n'
            f'{inner}"skipped_zero_entity": {m.skipped_zero_entity},\n'
            f'{inner}"skipped_zero_word": {m.skipped_zero_word}\n{pad}}}')


def _sample_json(sample: SampleMetrics) -> str:
    """One per_sample row, indented four spaces: counts and recall, no macro rates."""
    return (f'    {{\n      "id": {json.dumps(sample.sample_id)},\n'
            f'      "wer": {_counts_json(sample.wer, "      ")},\n'
            f'      "mwer": {_counts_json(sample.mwer, "      ")},\n'
            f'      "mcer": {_counts_json(sample.mcer, "      ")},\n'
            f'      "recall": {_recall_json(sample.recall, "      ")}\n    }}')


def render_json(corpus: CorpusMetrics, per_sample: list[SampleMetrics] | None,
                cfg: "RunConfig", groups: dict[str, CorpusMetrics] | None) -> Iterator[str]:
    """The report in pieces: the head (config, corpus and groups), then each
    per_sample row with the separator before it, then the tail."""
    blocks = [f'  "config": {{\n    "threshold": {cfg.threshold:.4f},\n'
              f'    "max_ngram": {cfg.max_ngram},\n'
              f'    "normalization": {json.dumps(cfg.normalization)}\n  }}',
              f'  "corpus": {_metrics_json(corpus, "  ")}']
    if groups:
        rows = ",\n".join(f'    {json.dumps(key)}: {_metrics_json(groups[key], "    ")}' for key in sorted(groups))
        blocks.append(f'  "groups": {{\n{rows}\n  }}')
    head = "{\n" + ",\n".join(blocks)
    if not per_sample:
        yield head + ("" if per_sample is None else ',\n  "per_sample": []') + "\n}\n"
        return
    yield head + ',\n  "per_sample": ['
    separator = "\n"
    for sample in per_sample:
        yield separator + _sample_json(sample)
        separator = ",\n"
    yield "\n  ]\n}\n"


class _Echo:
    """A file for csv.writer whose write returns the line, so writerow does too."""

    def write(self, line: str) -> str:
        return line


def render_csv(corpus: CorpusMetrics, per_sample: list[SampleMetrics] | None) -> Iterator[str]:
    """The header line, then one line per sample, then the corpus line."""
    header = ["id"]
    for metric in ("wer", "mwer", "mcer"):
        header += [f"{metric}_{f}" for f in ("substitutions", "insertions", "deletions",
                                             "hits", "ref_len", "rate")]
    for cat in CATEGORIES:
        header += [f"recall_{cat.value}_recalled", f"recall_{cat.value}_total", f"recall_{cat.value}_rate"]

    def row(label: str, m: SampleMetrics | CorpusMetrics) -> list:
        cells: list = [label]
        for counts in (m.wer, m.mwer, m.mcer):
            cells += [counts.substitutions, counts.insertions, counts.deletions,
                      counts.hits, counts.ref_len, _rate(counts.rate, "")]
        for cat in CATEGORIES:
            rc = m.recall.get(cat)
            if rc is None:
                cells += ["", "", ""]
            else:
                cells += [rc.recalled, rc.total, _rate(rc.rate, "")]
        return cells

    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(header)
    for sample in per_sample or []:
        yield writer.writerow(row(sample.sample_id, sample))
    yield writer.writerow(row("corpus", corpus))


def render_table(corpus: CorpusMetrics, groups: dict[str, CorpusMetrics] | None) -> str:
    header = ["", "samples", "WER", "M-WER", "M-CER"] + [c.value for c in TABLE_RECALL_ORDER]

    def cells(label: str, m: CorpusMetrics) -> list[str]:
        rates = [m.wer.rate, m.mwer.rate, m.mcer.rate]
        rates += [m.recall.get(cat, RecallCount()).rate for cat in TABLE_RECALL_ORDER]
        return [label, str(m.samples), *(_rate(rate, "-") for rate in rates)]

    rows = [header, cells("corpus", corpus)]
    for key in sorted(groups or {}):
        rows.append(cells(key, groups[key]))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                               for i, cell in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"


def write_output(chunks: Iterable[str], path) -> None:
    """Write a command's output, as the pieces of text arrive, as UTF-8 to the
    file at path, or to stdout when path is None; the bytes are the same
    either way. Stdout is flushed, so a reader that has gone raises
    BrokenPipeError here. A stdout with no binary buffer, such as a
    notebook's, gets the text itself. A caller with one string passes a
    one-element list."""
    if path is not None:
        with open(path, "wb") as handle:
            handle.writelines(chunk.encode("utf-8") for chunk in chunks)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunk.encode("utf-8") for chunk in chunks)
        sys.stdout.buffer.flush()
    else:
        sys.stdout.writelines(chunks)


def write_report(corpus: CorpusMetrics, per_sample: list[SampleMetrics] | None,
                 fmt: str, path, cfg: "RunConfig",
                 groups: dict[str, CorpusMetrics] | None = None) -> None:
    """Render a report and stream it through write_output: to the file at
    path, or to stdout when path is None. A table is one piece; it has a row
    per group, not per sample."""
    if fmt == "json":
        chunks = render_json(corpus, per_sample, cfg, groups)
    elif fmt == "csv":
        chunks = render_csv(corpus, per_sample)
    elif fmt == "table":
        chunks = [render_table(corpus, groups)]
    else:
        raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")
    write_output(chunks, path)
