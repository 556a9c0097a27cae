"""Golden fixtures, synthetic corpus generation, and the self-check battery.

The golden corpus lives as ordinary manifest/annotation files under a
versioned data directory, with an expected.json next to them. Every expected
value carries a check tag: "golden" values are fixed by the curated
sentences, "oracle" values come from _oracles.reference_sample and are
recomputed by it on every self-check, "trivial" values follow from the
definitions. The self-check holds the pipeline to two things per golden
sample: the frozen expected.json and reference_sample.
"""

import json
import random
import re
from importlib import resources
from pathlib import Path

from . import align as _align
from . import textnorm as _textnorm
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
    """The embedded golden corpus as (pairs, annotations)."""
    pairs = load_manifest(fixture_path("manifest.jsonl"))
    return pairs, load_annotations(fixture_path("annotations.jsonl"), pairs)


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


# --- self-check --------------------------------------------------------------

_TOL = 1e-12


def run_selfcheck() -> bool:
    """Re-run the golden fixtures and oracle spot-checks; one line per group.

    Each golden sample is scored by runner._eval_task, the per-sample step
    that evaluate runs, and meets the frozen file in golden-alignment
    (candidates, exact flags), oracle-scores and oracle-metrics ((errors,
    ref_len)), and reference_sample in oracle-scores (its best candidate's
    score, 0.0 for none) and oracle-metrics (S/I/D/hits). The identity and
    empty-hypothesis groups check two of those samples against the
    definitions. Returns True when everything passes.
    """
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")

    threshold = _align.DEFAULT_THRESHOLD
    max_n = _textnorm.DEFAULT_MAX_NGRAM
    report("config-defaults", threshold == 0.5 and max_n == 3,
           f"expected cutoff 0.5 and trigram candidates, found threshold={threshold} max_ngram={max_n}")

    missing = [name for name in ("manifest.jsonl", "annotations.jsonl", "expected.json")
               if not fixture_path(name).is_file()]
    report("fixture-files", not missing,
           f"missing fixture file(s) under {fixture_path('')}: {', '.join(missing)}")
    if missing:
        return False

    try:
        pairs, annotations = load_golden()
        expected = load_expected()
    except Exception as e:  # surface any ingestion problem as a diagnostic
        report("fixture-load", False, str(e))
        return False
    report("fixture-load", True)

    report("fuzzy-anchors",
           abs(similarity_ratio("quinidine", "quinidan") - 14 / 17) <= _TOL
           and abs(similarity_ratio("digoxin", "dikod sin") - 0.625) <= _TOL,
           "similarity anchors drifted")

    cfg = RunConfig(threshold=threshold, max_ngram=max_n)
    scored = {}  # id -> (aligned entities, metric -> counts)
    for pair in pairs:
        exp = expected["samples"][pair.id]
        aligned, sample = _eval_task(pair, annotations, cfg, True)
        oracle = reference_sample(pair.reference, pair.hypothesis, annotations[pair.id].entities,
                                  threshold, max_n)
        got = [(ae.candidate.normalized if ae.candidate else None, ae.exact) for ae in aligned]
        want = [(e["candidate"], e["exact"]) for e in exp["alignment"]]
        report(f"golden-alignment[{pair.id}]", got == want, f"got={got} want={want}")

        ok, detail = True, ""
        for ae, e, match in zip(aligned, exp["alignment"], oracle.alignment):
            best = 0.0 if match is None else match.score
            if abs(ae.score - e["score"]) > _TOL or abs(best - e["score"]) > _TOL:
                ok, detail = False, (f"entity {e['entity']!r}: frozen={e['score']} "
                                     f"pipeline={ae.score} oracle={best}")
        report(f"oracle-scores[{pair.id}]", ok, detail)

        observed = {"wer": sample.wer, "mwer": sample.mwer, "mcer": sample.mcer}
        scored[pair.id] = aligned, observed
        ok, detail = True, ""
        for metric, counts in observed.items():
            frozen = exp[metric]
            if (counts.errors, counts.ref_len) != (frozen["errors"], frozen["ref_len"]):
                ok, detail = False, (f"{metric}: pipeline {counts.errors}/{counts.ref_len}, "
                                     f"frozen {frozen['errors']}/{frozen['ref_len']}")
                break
            split, oracle_split = counts[:4], getattr(oracle, metric)[:4]
            if split != oracle_split:
                ok, detail = False, f"{metric}: pipeline S/I/D/hits {split} != oracle {oracle_split}"
                break
        report(f"oracle-metrics[{pair.id}]", ok, detail)

    aligned, observed = scored[next(p.id for p in pairs if p.reference == p.hypothesis)]
    report("identity-metrics",
           all(counts.errors == 0 for counts in observed.values()) and all(ae.exact for ae in aligned),
           "identical hypothesis must score zero everywhere")

    aligned, observed = scored[next(p.id for p in pairs if p.hypothesis == "")]
    report("empty-hypothesis-metrics",
           all(counts.rate == 1.0 for counts in observed.values()) and not any(ae.exact for ae in aligned),
           "empty hypothesis must score 1.0 everywhere")

    return failures == 0
