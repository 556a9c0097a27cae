"""Seeded benchmark corpora, written as manifest and annotation JSONL.

The program under test only ever reads the files written here. Generation
happens before anything is timed and is never part of a measurement.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from medwer.corpus import AnnotationSet, TranscriptPair
from medwer.fixtures import synthetic_corpus

# Every letter of the synthetic corpus goes to one precomposed non-ASCII
# letter. Each replacement is one code point, so entity offsets stay valid,
# and the map is 1:1, so the gestalt ratio and every edit distance are
# unchanged. The targets are lowercase and stable under NFC and casefold.
_ASCII_LETTERS, _MAPPED_LETTERS = "abcdefghijklmnopqrstuvwxyz", "áḃçďéḟğĥïĵķĺṁñöṗʠřşťüṽŵẋÿž"
LETTER_MAP = str.maketrans(_ASCII_LETTERS, _MAPPED_LETTERS)


@dataclass(frozen=True)
class Shape:
    samples: int
    tokens_per_sample: int
    entities_per_sample: int
    rate: float = 0.3


@dataclass
class Corpus:
    pairs: list[TranscriptPair]
    annotations: dict[str, AnnotationSet]
    manifest: Path
    annotations_path: Path

    def sizes(self) -> dict:
        return {
            "samples": len(self.pairs),
            "tokens": sum(len(p.reference.split()) + len(p.hypothesis.split()) for p in self.pairs),
            "entities": sum(len(a.entities) for a in self.annotations.values()),
            "bytes": self.manifest.stat().st_size + self.annotations_path.stat().st_size,
        }


def corpus_seed(workload: str, seed: int) -> int:
    """Each workload draws its corpus from its own seed stream."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")


def _write_corpus(directory: Path, pairs, annotations) -> Corpus:
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / "manifest.jsonl"
    annotations_path = directory / "annotations.jsonl"
    _write_jsonl(manifest, ({"id": p.id, "reference": p.reference, "hypothesis": p.hypothesis,
                             "accent": p.accent, "domain": p.domain, "model": p.model}
                            for p in pairs))
    _write_jsonl(annotations_path, ({"id": a.id,
                                     "entities": [{"text": e.text, "category": e.category.value,
                                                   "begin": e.begin, "end": e.end}
                                                  for e in a.entities]}
                                    for a in annotations.values()))
    return Corpus(pairs, annotations, manifest, annotations_path)


def map_letters(pairs, annotations):
    """The corpus with LETTER_MAP applied to every transcript and entity text."""
    mapped_pairs = [dataclasses.replace(p, reference=p.reference.translate(LETTER_MAP),
                                        hypothesis=p.hypothesis.translate(LETTER_MAP))
                    for p in pairs]
    mapped_annotations = {
        key: dataclasses.replace(a, entities=tuple(dataclasses.replace(e, text=e.text.translate(LETTER_MAP))
                                                   for e in a.entities))
        for key, a in annotations.items()}
    return mapped_pairs, mapped_annotations


def build(directory: Path, workload: str, seed: int, shape: Shape,
          letter_map: bool = False) -> tuple[Corpus, Corpus | None]:
    """Generate the workload's corpus and write it under directory.

    With letter_map, the corpus the program sees is the mapped one, and the
    unmapped original is written under directory/plain as the second value.
    """
    pairs, annotations = synthetic_corpus(shape.samples, seed=corpus_seed(workload, seed),
                                          tokens_per_sample=shape.tokens_per_sample,
                                          entities_per_sample=shape.entities_per_sample,
                                          rate=shape.rate)
    if not letter_map:
        return _write_corpus(directory, pairs, annotations), None
    plain = _write_corpus(directory / "plain", pairs, annotations)
    return _write_corpus(directory, *map_letters(pairs, annotations)), plain
