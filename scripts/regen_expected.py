#!/usr/bin/env python3
"""Regenerate the golden expected.json: each entry is fixtures.golden_entry
on _oracles.reference_sample's result, never on the production matcher, so
a regression in the fast paths cannot rewrite its own expectations."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from medwer._oracles import reference_sample
from medwer.fixtures import fixture_path, golden_entry, load_golden


def build_expected() -> dict:
    """The expected.json document, recomputed from the golden fixtures."""
    pairs, annotations = load_golden()
    samples = {}
    for pair in pairs:
        entities = annotations[pair.id].entities
        oracle = reference_sample(pair.reference, pair.hypothesis, entities)
        samples[pair.id] = golden_entry(
            entities, [(None, 0.0, False) if match is None else (match.normalized, match.score, exact)
                       for match, exact in zip(oracle.alignment, oracle.exact)],
            oracle.wer, oracle.mwer, oracle.mcer, oracle.recall)
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
