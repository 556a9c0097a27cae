"""Entity-aware evaluation of clinical ASR transcripts.

Aligns noisy ASR hypotheses to ground-truth medical entities with gestalt
fuzzy matching over hypothesis n-grams, then scores WER, medical WER
(M-WER), medical CER (M-CER), and per-category entity recall at sample and
corpus level.
"""

from .align import (AlignedEntity, EntityAnnotation, EntityCategory,
                    ground_truth_sequence, med_text_align, recovered_sequence)
from .corpus import (AnnotationSet, AnnotationError, IngestionError, ManifestError,
                     TranscriptPair, load_annotations, load_manifest, write_report)
from .fuzzy import similarity_ratio
from .metrics import (CorpusMetrics, EditCounts, RecallCount, SampleMetrics,
                      aggregate, edit_distance, entity_recall, medical_cer,
                      medical_wer, wer)
from .runner import RunConfig, align_corpus, evaluate_corpus
from .textnorm import CandidateSpan, TokenSequence, ngrams, normalize, tokenize

__version__ = "0.1.0"

__all__ = [
    "AlignedEntity", "AnnotationError", "AnnotationSet", "CandidateSpan",
    "CorpusMetrics", "EditCounts", "EntityAnnotation", "EntityCategory",
    "IngestionError", "ManifestError", "RecallCount", "RunConfig",
    "SampleMetrics", "TokenSequence", "TranscriptPair", "aggregate",
    "align_corpus", "edit_distance", "entity_recall", "evaluate_corpus",
    "ground_truth_sequence", "load_annotations", "load_manifest",
    "med_text_align", "medical_cer", "medical_wer", "ngrams", "normalize",
    "recovered_sequence", "similarity_ratio", "tokenize", "wer", "write_report",
]
