"""Knowledge-graph enriched visual storytelling, desk scale.

Three stages: distill per-image term sets from object features, enrich the
term path with one bridge relation found in a knowledge graph and ranked by
language-model perplexity, then generate a multi-sentence story with a
length-aware transformer decoder under repetition-penalized beam search.
"""

from .config import RunConfig
from .distill import DistillerModel, ImageSequence, ObjectFeatureSet, train_distiller
from .enrich import EnrichmentCandidate, TermPath, build_candidates, select_best
from .generate import BeamPenaltyConfig, GeneratorModel, Story, decode_stories, decode_story, train_generator
from .kg import Bridge, KGTuple, RelationIndex, load_tuples
from .lm import GRULanguageModel, NGramLM, linearize_groups, perplexities, perplexity, train_lm
from .metrics import bleu_n, distinct_n
from .pipeline import evaluate_stories, rerun_from_manifest, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BeamPenaltyConfig",
    "Bridge",
    "DistillerModel",
    "EnrichmentCandidate",
    "GRULanguageModel",
    "GeneratorModel",
    "ImageSequence",
    "KGTuple",
    "NGramLM",
    "ObjectFeatureSet",
    "RelationIndex",
    "RunConfig",
    "Story",
    "TermPath",
    "bleu_n",
    "build_candidates",
    "decode_stories",
    "decode_story",
    "distinct_n",
    "evaluate_stories",
    "linearize_groups",
    "load_tuples",
    "perplexities",
    "perplexity",
    "rerun_from_manifest",
    "run_pipeline",
    "select_best",
    "train_distiller",
    "train_generator",
    "train_lm",
]
