"""Entity-aware evaluation of clinical ASR transcripts.

Aligns noisy ASR hypotheses to ground-truth medical entities with gestalt
fuzzy matching over hypothesis n-grams, then scores WER, medical WER
(M-WER), medical CER (M-CER), and per-category entity recall at sample and
corpus level.
"""

from .align import (AlignedEntity, EntityAnnotation, EntityCategory,
                    ground_truth_sequence, med_text_align, recovered_sequence)
from .corpus import (AnnotationSet, AnnotationError, FileNerSource, IngestionError,
                     ManifestError, NerSource, Report, ReportError, TranscriptPair,
                     fetch_annotations, load_annotations, load_manifest,
                     load_report, write_report)
from .fuzzy import MatchBlock, longest_match, matching_blocks, similarity_ratio
from .metrics import (CorpusMetrics, EditCounts, RecallCount, SampleMetrics,
                      aggregate, edit_distance, entity_recall, medical_cer,
                      medical_wer, wer)
from .runner import RunConfig, align_corpus, evaluate_corpus, evaluate_sample
from .textnorm import CandidateSpan, Token, TokenSequence, ngrams, normalize, tokenize

__version__ = "0.1.0"

__all__ = [
    "AlignedEntity", "AnnotationError", "AnnotationSet", "CandidateSpan",
    "CorpusMetrics", "EditCounts", "EntityAnnotation", "EntityCategory",
    "FileNerSource", "IngestionError", "ManifestError", "MatchBlock",
    "NerSource", "RecallCount", "Report", "ReportError", "RunConfig", "SampleMetrics",
    "Token", "TokenSequence", "TranscriptPair", "aggregate", "align_corpus",
    "edit_distance", "entity_recall", "evaluate_corpus", "evaluate_sample",
    "fetch_annotations", "ground_truth_sequence", "load_annotations",
    "load_manifest", "load_report", "longest_match", "matching_blocks",
    "med_text_align", "medical_cer", "medical_wer", "ngrams", "normalize",
    "recovered_sequence", "similarity_ratio", "tokenize", "wer",
    "write_report",
]
