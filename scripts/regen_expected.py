#!/usr/bin/env python3
"""Regenerate the golden expected.json from the naive oracle implementations.

The candidate strings and exact flags in the output are the frozen golden
expectations; every score and every metric count is recomputed here with
medwer._oracles.reference_sample, the reference pipeline, never with the
production matcher, so a regression in the fast paths cannot silently
rewrite its own expectations. Tags: "golden" = fixed by the curated
sentences, "oracle" = a reference_sample value, reproduced by this script
and at self-check time, "trivial" = definitional.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from medwer._oracles import reference_sample
from medwer.fixtures import fixture_path, load_golden


def build_expected() -> dict:
    """The expected.json document, recomputed from the golden fixtures."""
    pairs, annotations = load_golden()

    samples = {}
    for pair in pairs:
        entities = annotations[pair.id].entities
        oracle = reference_sample(pair.reference, pair.hypothesis, entities)
        samples[pair.id] = {
            "alignment": [{
                "entity": entity.text,
                "category": entity.category.value,
                "candidate": None if match is None else match.normalized,
                "score": 0.0 if match is None else match.score,
                "exact": exact,
                "check": "trivial" if match is None else ("golden" if exact else "oracle"),
            } for entity, match, exact in zip(entities, oracle.alignment, oracle.exact)],
            **{metric: {"errors": sum(counts[:3]), "ref_len": counts[4], "check": "oracle"}
               for metric, counts in (("wer", oracle.wer), ("mwer", oracle.mwer), ("mcer", oracle.mcer))},
            "recall": {cat.value: {"recalled": recalled, "total": total, "check": "trivial"}
                       for cat, (recalled, total) in sorted(oracle.recall.items(), key=lambda kv: kv[0].value)},
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
