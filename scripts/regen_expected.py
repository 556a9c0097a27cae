#!/usr/bin/env python3
"""Regenerate the golden expected.json from the naive oracle implementations.

The candidate strings and exact flags in the output are the frozen golden
expectations; every score and every metric count is recomputed here with the
reference implementations in medwer._oracles, never with the production
matcher, so a regression in the fast paths cannot silently rewrite its own
expectations. Tags: "golden" = fixed by the curated sentences, "oracle" =
reproduced by this script and at self-check time, "trivial" = definitional.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from medwer._oracles import dp_distance, oracle_align, reference_normalize
from medwer.fixtures import fixture_path, load_golden


def build_expected() -> dict:
    """The expected.json document, recomputed from the golden fixtures."""
    pairs, annotations = load_golden()

    samples = {}
    for pair in pairs:
        entities = annotations[pair.id].entities
        alignment = []
        recovered_parts = []
        for entity in entities:
            best = oracle_align(entity.text, pair.hypothesis)
            cand, score = (None, 0.0) if best is None else (best.normalized, best.score)
            exact = cand is not None and cand == reference_normalize(entity.text)
            if cand is not None:
                recovered_parts.append(cand)
            alignment.append({
                "entity": entity.text,
                "category": entity.category.value,
                "candidate": cand,
                "score": score,
                "exact": exact,
                "check": "trivial" if cand is None else ("golden" if exact else "oracle"),
            })
        gt = " ".join(reference_normalize(e.text) for e in entities)
        rec = " ".join(recovered_parts)
        ref_words = reference_normalize(pair.reference).split()
        hyp_words = reference_normalize(pair.hypothesis).split()
        samples[pair.id] = {
            "alignment": alignment,
            "wer": {"errors": dp_distance(ref_words, hyp_words),
                    "ref_len": len(ref_words), "check": "oracle"},
            "mwer": {"errors": dp_distance(gt.split(), rec.split()),
                     "ref_len": len(gt.split()), "check": "oracle"},
            "mcer": {"errors": dp_distance(gt, rec),
                     "ref_len": len(gt), "check": "oracle"},
            "recall": {cat.value: {
                "recalled": sum(1 for a, e in zip(alignment, entities)
                                if e.category == cat and a["exact"]),
                "total": sum(1 for e in entities if e.category == cat),
                "check": "trivial",
            } for cat in sorted({e.category for e in entities}, key=lambda c: c.value)},
        }

    return {"version": "v1", "threshold": 0.5, "max_ngram": 3, "samples": samples}


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def main() -> int:
    out = fixture_path("expected.json")
    out.write_text(render(build_expected()), encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
