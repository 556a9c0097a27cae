#!/usr/bin/env python3
"""Regenerate the golden expected.json: each entry is fixtures.oracle_entry
of _oracles.reference_sample's result, never of the production matcher, so
a regression in the fast paths cannot rewrite its own expectations."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from medwer._oracles import reference_sample
from medwer.fixtures import fixture_path, load_golden, oracle_entry


def build_expected() -> dict:
    """The expected.json document, recomputed from the golden fixtures."""
    pairs, annotations = load_golden()
    samples = {}
    for pair in pairs:
        entities = annotations[pair.id].entities
        samples[pair.id] = oracle_entry(entities, reference_sample(pair.reference, pair.hypothesis, entities))
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
