import hashlib
import json

import pytest

from helpers import annotation_record, pair_record
from medwer.fixtures import synthetic_corpus


def _digest(pairs, annotations):
    records = [pair_record(p) for p in pairs] + [annotation_record(a) for a in annotations.values()]
    return hashlib.sha256(json.dumps(records, ensure_ascii=False).encode()).hexdigest()


@pytest.mark.parametrize("args, kwargs, digest", [
    # the paper's shape and the long-consultation shape the benchmark times
    ((50,), {"seed": 11}, "fc38c3ecce6c3f1f92147453cf23fd4dcfd42c5ecae0206acbee55eb11ef58cf"),
    ((1,), {"seed": 2, "tokens_per_sample": 2000, "entities_per_sample": 100},
     "979c2fe4ac27ee31798afc7aeaee665d116140243eeaafc2d293c7ceee323943"),
])
def test_synthetic_corpus_is_pinned(args, kwargs, digest):
    # benchmark timings compare only while every revision times the same corpora
    assert _digest(*synthetic_corpus(*args, **kwargs)) == digest
