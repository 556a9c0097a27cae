"""Golden fixtures, synthetic corpus generation, and the self-check battery.

The golden corpus lives as ordinary manifest/annotation files under a
versioned data directory, with an expected.json next to them. golden_entry
builds a sample's entry there, and oracle_entry builds it from
_oracles.reference_sample: scripts/regen_expected.py writes that, and the
self-check holds it and the pipeline's entry to the frozen one. Check tags:
"golden" values are fixed by the curated sentences, "oracle" values are
reference_sample's, "trivial" values follow from the definitions.
"""

import json
import random
import re
from importlib import resources
from pathlib import Path

from ._oracles import reference_sample
from .align import EntityAnnotation, EntityCategory
from .corpus import AnnotationSet, TranscriptPair, load_annotations, load_manifest
from .fuzzy import similarity_ratio
from .runner import RunConfig, _eval_task

DATA_VERSION = "v1"

NOISE_OPS = ("char_del", "char_sub", "word_merge", "word_split")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_WS_SPLIT = re.compile(r"(\s+)")


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("medwer") / "data" / DATA_VERSION / name))


def load_golden() -> tuple[list[TranscriptPair], dict[str, AnnotationSet]]:
    """The embedded golden corpus as (pairs, annotations), loaded strictly:
    every sample must have an annotation record."""
    pairs = load_manifest(fixture_path("manifest.jsonl"))
    return pairs, load_annotations(fixture_path("annotations.jsonl"), pairs, strict=True)


def load_expected() -> dict:
    return json.loads(fixture_path("expected.json").read_text(encoding="utf-8"))


# --- synthetic noise ---------------------------------------------------------


def synth_noise(reference: str, seed: int = 0, rate: float = 0.3) -> str:
    """Corrupt a reference transcript, deterministically for a given seed.

    Each whitespace token is hit with probability `rate` by one operation
    drawn from NOISE_OPS: char_sub replaces a character, char_del removes
    one, word_split breaks the token into two or three pieces whose
    concatenation equals the original, word_merge glues the token to the
    next one.
    """
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    rng = random.Random(seed)

    parts = _WS_SPLIT.split(reference)
    out: list[str] = []
    drop_next_sep = False
    for idx, part in enumerate(parts):
        if idx % 2 == 1:  # separator
            if drop_next_sep:
                drop_next_sep = False
            else:
                out.append(part)
            continue
        if not part:
            continue
        token = part
        if rng.random() < rate:
            op = NOISE_OPS[rng.randrange(len(NOISE_OPS))]
            if op == "char_sub":
                i = rng.randrange(len(token))
                pool = _LETTERS.replace(token[i], "") or _LETTERS
                token = token[:i] + pool[rng.randrange(len(pool))] + token[i + 1:]
            elif op == "char_del" and len(token) >= 2:
                i = rng.randrange(len(token))
                token = token[:i] + token[i + 1:]
            elif op == "word_split" and len(token) >= 3:
                cuts = sorted(rng.sample(range(1, len(token)), 2 if len(token) >= 6 else 1))
                pieces = [token[a:b] for a, b in zip([0] + cuts, cuts + [len(token)])]
                token = " ".join(pieces)
            elif op == "word_merge" and idx + 2 < len(parts):
                drop_next_sep = True
        out.append(token)
    return "".join(out)


# --- synthetic corpus --------------------------------------------------------

_FILLER = ("the", "patient", "reports", "denies", "mild", "severe", "chronic",
           "acute", "stable", "with", "without", "no", "history", "of", "on",
           "exam", "noted", "today", "and", "bilateral", "follow", "up",
           "review", "plan", "continue", "at", "home", "daily", "improving",
           "since", "admission", "unremarkable")

_ENTITY_BANK = {
    EntityCategory.MED: ("digoxin", "quinidine", "spironolactone", "metformin",
                         "warfarin", "insulin", "lisinopril", "amoxicillin",
                         "heparin", "ketamine"),
    EntityCategory.COND: ("cough", "asthma", "pneumonia", "paralysis",
                          "hypertension", "anemia", "renal failure",
                          "chest pain", "diabetes", "seizure"),
    EntityCategory.ANA: ("lungs", "heart", "liver", "kidney", "abdomen",
                         "spine", "left arm", "thyroid"),
    EntityCategory.TTP: ("biopsy", "dialysis", "intubation", "blood transfusion",
                         "chest radiograph", "lumbar puncture"),
    EntityCategory.PHI: ("mr johnson", "accra clinic", "ward seven", "dr okafor"),
}

_ACCENTS = ("yoruba", "swahili", "igbo", "zulu", "hausa")
_MODELS = ("model-alpha", "model-beta")


def synthetic_corpus(n_samples: int, seed: int = 0, tokens_per_sample: int = 30,
                     entities_per_sample: int = 3, rate: float = 0.3,
                     ) -> tuple[list[TranscriptPair], dict[str, AnnotationSet]]:
    """Build a seeded corpus of clinical-looking sentences with planted entities.

    References are single-spaced lowercase word sequences of roughly
    tokens_per_sample words; hypotheses are noisy copies produced by
    synth_noise. Offsets are exact by construction.
    """
    rng = random.Random(seed)
    categories = tuple(_ENTITY_BANK)
    pairs: list[TranscriptPair] = []
    annotations: dict[str, AnnotationSet] = {}
    for n in range(n_samples):
        items: list[tuple[str, EntityCategory | None]] = []
        n_entities = min(entities_per_sample, tokens_per_sample)
        for _ in range(n_entities):
            cat = categories[rng.randrange(len(categories))]
            bank = _ENTITY_BANK[cat]
            items.append((bank[rng.randrange(len(bank))], cat))
        entity_words = sum(len(text.split()) for text, _ in items)
        for _ in range(max(0, tokens_per_sample - entity_words)):
            items.append((_FILLER[rng.randrange(len(_FILLER))], None))
        rng.shuffle(items)

        words: list[str] = []
        entities: list[EntityAnnotation] = []
        pos = 0
        for text, cat in items:
            if words:
                pos += 1  # joining space
            if cat is not None:
                entities.append(EntityAnnotation(text, cat, pos, pos + len(text)))
            words.append(text)
            pos += len(text)
        reference = " ".join(words)
        hypothesis = synth_noise(reference, seed=rng.randrange(2 ** 32), rate=rate)
        sample_id = f"s{n:05d}"
        pairs.append(TranscriptPair(sample_id, reference, hypothesis,
                                    accent=_ACCENTS[n % len(_ACCENTS)],
                                    domain="clinical",
                                    model=_MODELS[n % len(_MODELS)]))
        annotations[sample_id] = AnnotationSet(sample_id, tuple(entities))
    return pairs, annotations


# --- golden entries and the self-check ----------------------------------------

_TOL = 1e-12
_METRICS = ("wer", "mwer", "mcer")


def golden_entry(entities, alignment, wer, mwer, mcer, recall) -> dict:
    """A golden sample's expected.json entry, from each entity's (candidate,
    score, exact), candidate None for no match; the (S, I, D, hits, ref_len)
    of wer, mwer and mcer; and recall's category -> (recalled, total)."""
    return {"alignment": [{"entity": entity.text, "category": entity.category.value, "candidate": candidate,
                           "score": score, "exact": exact,
                           "check": "trivial" if candidate is None else ("golden" if exact else "oracle")}
                          for entity, (candidate, score, exact) in zip(entities, alignment)],
            **{metric: {"errors": sum(counts[:3]), "ref_len": counts[4], "check": "oracle"}
               for metric, counts in zip(_METRICS, (wer, mwer, mcer))},
            "recall": {cat.value: {"recalled": recalled, "total": total, "check": "trivial"}
                       for cat, (recalled, total) in sorted(recall.items(), key=lambda kv: kv[0].value)}}


def oracle_entry(entities, oracle) -> dict:
    """golden_entry on reference_sample's result for the sample's entities."""
    return golden_entry(entities, [(None, 0.0, False) if match is None else (match.normalized, match.score, exact)
                                   for match, exact in zip(oracle.alignment, oracle.exact)],
                        oracle.wer, oracle.mwer, oracle.mcer, oracle.recall)


def _parts(entry: dict) -> tuple[list, list, list]:
    """An expected.json entry's (field, value) pairs for each per-sample check, in check order."""
    entities = [(f"entity {e['entity']!r}", e) for e in entry["alignment"]]
    return ([("entities", [e["entity"] for e in entry["alignment"]]),
             *((name, (e["candidate"], e["exact"])) for name, e in entities)],
            [(name, e["score"]) for name, e in entities],
            [*((metric, (entry[metric]["errors"], entry[metric]["ref_len"])) for metric in _METRICS),
             ("recall", {label: (e["recalled"], e["total"]) for label, e in entry["recall"].items()})])


def _check_golden(pairs: list[TranscriptPair], expected: dict) -> tuple[str, str]:
    """The ids of the first identity pair and the first empty-hypothesis pair;
    ValueError when either is missing or expected.json names other samples."""
    unmatched = sorted({p.id for p in pairs} ^ set(expected["samples"]))
    if unmatched:
        raise ValueError(f"sample id(s) in only one of the manifest and expected.json: {', '.join(unmatched)}")
    identity = next((p.id for p in pairs if p.reference == p.hypothesis), None)
    if identity is None:
        raise ValueError("no golden pair has a hypothesis equal to its reference")
    empty = next((p.id for p in pairs if p.hypothesis == ""), None)
    if empty is None:
        raise ValueError("no golden pair has an empty hypothesis")
    return identity, empty


def run_selfcheck() -> tuple[bool, list[str]]:
    """Re-run the golden fixtures and oracle spot-checks; one line per group.

    golden_entry builds each golden sample's entry from runner._eval_task, the
    per-sample step of evaluate, and from reference_sample. golden-alignment
    (candidates, exact flags), oracle-scores and oracle-metrics ((errors,
    ref_len), recall; and the pipeline's S/I/D/hits against the oracle's)
    compare their parts of both with the frozen entry; a FAIL names the first
    field that differs. The identity and empty-hypothesis groups check two
    samples against the definitions. fixture-load fails when the three files
    name different samples or a group has no pair. Returns whether every
    check passed, and the lines.
    """
    lines = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        lines.append(f"PASS {name}" if ok else f"FAIL {name}: {detail}")

    cfg = RunConfig()
    threshold, max_n = cfg.threshold, cfg.max_ngram
    report("config-defaults", threshold == 0.5 and max_n == 3,
           f"expected cutoff 0.5 and trigram candidates, found threshold={threshold} max_ngram={max_n}")

    missing = [name for name in ("manifest.jsonl", "annotations.jsonl", "expected.json")
               if not fixture_path(name).is_file()]
    report("fixture-files", not missing,
           f"missing fixture file(s) under {fixture_path('')}: {', '.join(missing)}")
    if missing:
        return False, lines

    try:
        pairs, annotations = load_golden()
        expected = load_expected()
        identity, empty = _check_golden(pairs, expected)
    except Exception as e:  # surface any ingestion or coverage problem as a diagnostic
        report("fixture-load", False, str(e))
        return False, lines
    report("fixture-load", True)

    report("fuzzy-anchors",
           abs(similarity_ratio("quinidine", "quinidan") - 14 / 17) <= _TOL
           and abs(similarity_ratio("digoxin", "dikod sin") - 0.625) <= _TOL,
           "similarity anchors drifted")

    scored = {}  # id -> (aligned entities, (wer, mwer, mcer) counts)
    for pair in pairs:
        entities = annotations[pair.id].entities
        aligned, sample = _eval_task(pair, annotations, cfg)
        oracle = reference_sample(pair.reference, pair.hypothesis, entities, threshold, max_n)
        observed, oracle_counts = (sample.wer, sample.mwer, sample.mcer), (oracle.wer, oracle.mwer, oracle.mcer)
        scored[pair.id] = aligned, observed
        entries = (
            golden_entry(entities, [(None if ae.candidate is None else ae.candidate.normalized, ae.score, ae.exact)
                                    for ae in aligned], *observed, sample.recall),
            oracle_entry(entities, oracle),
            expected["samples"][pair.id])
        splits = [f"{metric}: pipeline S/I/D/hits {got[:4]} != oracle {want[:4]}"
                  for metric, got, want in zip(_METRICS, observed, oracle_counts) if got[:4] != want[:4]]
        for check, *sides in zip(("golden-alignment", "oracle-scores", "oracle-metrics"), *map(_parts, entries)):
            details = [f"{name}: pipeline {got!r}, oracle {want!r}, frozen {frozen!r}"
                       for (name, got), (_, want), (_, frozen) in zip(*sides) if not got == want == frozen]
            details += splits if check == "oracle-metrics" else []
            report(f"{check}[{pair.id}]", not details, details[0] if details else "")

    aligned, observed = scored[identity]
    report("identity-metrics", all(counts.errors == 0 for counts in observed) and all(ae.exact for ae in aligned),
           "identical hypothesis must score zero everywhere")

    aligned, observed = scored[empty]
    report("empty-hypothesis-metrics",
           all(counts.rate == 1.0 for counts in observed) and not any(ae.exact for ae in aligned),
           "empty hypothesis must score 1.0 everywhere")

    return all(line.startswith("PASS") for line in lines), lines
