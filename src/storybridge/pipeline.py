"""End-to-end wiring: training entry points, the staged pipeline, metrics.

A pipeline run executes distill, enrich, and generate over files, then
writes a manifest holding the resolved config plus content hashes of every
input (taken before the first stage runs) and output. Reruns driven by the
manifest reproduce the output files byte for byte; nothing here reads the
clock or unseeded randomness.
"""

from __future__ import annotations

import os

from .config import RunConfig
from .corpus import build_training_pairs, load_corpus
from .distill import DistillerConfig, DistillerModel, load_feature_file, train_distiller
from .enrich import TermPath, build_candidates, check_base_path, select_best_of_each
from .generate import BeamPenaltyConfig, GeneratorConfig, GeneratorModel, UnknownWordsError, decode_stories, train_generator
from .ioutil import InputError, read_json, read_jsonl_lines, sha256_file, write_json, write_jsonl
from .kg import RelationIndex, load_tuples
from .lm import LMConfig, load_lm, train_lm
from .metrics import bleu_n, distinct_n
from .optim import TrainConfig
from .params import COMPANION_SUFFIX

MANIFEST_VERSION = 1
STAGES = ("distill", "enrich", "generate")


def _require(path: str, stage: str, role: str) -> str:
    if not path:
        raise InputError(f"stage '{stage}' needs a {role}, but none is configured")
    if not os.path.isfile(path):
        raise InputError(f"stage '{stage}' needs a {role}, missing file: {path}")
    return path


def _load_stories(config: RunConfig, command: str, with_text: bool = True) -> tuple[list, dict]:
    """The story corpus plus (with_text) the text-only corpus if one is configured, and the file of each story id.

    Files that hold no story at all raise InputError naming them.
    """
    paths = [_require(config.corpus_path, command, "story corpus (corpus_path)")]
    paths += [config.text_corpus_path] if with_text and config.text_corpus_path else []
    stories, source = [], {}
    for path in paths:
        for story in load_corpus(path):
            stories.append(story)
            source.setdefault(story.story_id, path)
    if not stories:
        raise InputError(f"{command}: no story to train on in {' or '.join(paths)}")
    return stories, source


def _train_config(config: RunConfig, log) -> TrainConfig:
    """The optimizer settings every train_*_command shares."""
    return TrainConfig(
        epochs=config.epochs, learning_rate=config.learning_rate, warmup_steps=config.warmup_steps, log=log
    )


def train_distiller_command(config: RunConfig, log=None) -> str:
    """Train the image-to-term model and save it at config.distiller_model.

    The model has one image-order slot per image of the longest training story.
    """
    stories = _load_stories(config, "train-distiller", with_text=False)[0]
    features = load_feature_file(_require(config.features_path, "train-distiller", "object-feature file (features_path)"))
    pairs = build_training_pairs(stories, mode="distiller", features=features)
    model, _ = train_distiller(
        pairs,
        DistillerConfig(
            hidden_size=config.hidden_size,
            heads=config.heads,
            layers=config.layers,
            ff_multiple=config.ff_multiple,
            num_slots=max((len(seq.slots) for seq, _ in pairs), default=0),
            max_terms_per_image=config.max_terms_per_image,
            seed=config.seed,
        ),
        _train_config(config, log),
    )
    out = config.distiller_model or os.path.join(config.out_dir, "distiller.json")
    model.save(out)
    return out


def train_lm_command(config: RunConfig, log=None) -> str:
    """Train the term LM (n-gram or recurrent) and save it at config.lm_model."""
    model, _ = train_lm(
        build_training_pairs(_load_stories(config, "train-lm")[0], mode="lm"),
        LMConfig(
            kind=config.lm_kind,
            order=config.ngram_order,
            smoothing_k=config.smoothing_k,
            hidden_size=config.lm_hidden_size,
            seed=config.seed,
        ),
        _train_config(config, log),
    )
    out = config.lm_model or os.path.join(config.out_dir, "term_lm.json")
    model.save(out)
    return out


def train_generator_command(config: RunConfig, log=None, finetune_from: str = "") -> str:
    """Train (or fine-tune) the term-to-story model; save at config.generator_model."""
    stories, source = _load_stories(config, "train-generator")
    pairs = build_training_pairs(stories, mode="generator")
    base_model = GeneratorModel.load(finetune_from) if finetune_from else None
    model_config = GeneratorConfig(
        hidden_size=config.hidden_size,
        heads=config.heads,
        encoder_layers=config.layers,
        decoder_layers=config.decoder_layers,
        ff_multiple=config.ff_multiple,
        max_sentence_tokens=config.max_sentence_tokens,
        seed=config.seed,
    )
    try:
        model, _ = train_generator(pairs, model_config, _train_config(config, log), model=base_model)
    except UnknownWordsError as exc:  # only a fine-tuned model can lack words of its training stories
        raise InputError(
            f"{source[exc.story_id]}: story {exc.story_id!r} has words {exc.words} outside the vocabulary of "
            f"{finetune_from}, which fine-tuning keeps"
        ) from None
    out = config.generator_model or os.path.join(config.out_dir, "generator.json")
    model.save(out)
    return out


def load_kg_index(config: RunConfig) -> RelationIndex:
    if not config.kg:
        raise InputError("stage 'enrich' needs at least one knowledge-graph file (kg)")
    index = RelationIndex()
    for entry in config.kg:
        path = _require(entry.get("path", ""), "enrich", "knowledge-graph tuple file")
        source = entry.get("source") or os.path.splitext(os.path.basename(path))[0]
        load_tuples(path, source, two_hop_ok=entry.get("two_hop", True), into=index)
    return index


def stage_distill(config: RunConfig, out_path: str) -> list[dict]:
    features = load_feature_file(_require(config.features_path, "distill", "object-feature file (features_path)"))
    model = DistillerModel.load(_require(config.distiller_model, "distill", "distiller checkpoint (distiller_model)"))
    for seq in features:
        if len(seq.slots) > model.config.num_slots:
            raise InputError(
                f"{config.features_path}: story {seq.story_id!r} has {len(seq.slots)} images, but the distiller "
                f"{config.distiller_model} was trained for at most {model.config.num_slots}"
            )
    records = [
        TermPath.from_groups([terms for terms, _score in beams], story_id=seq.story_id).to_record()
        for seq, beams in zip(features, model.term_beams(features, beam_size=config.beam_size))
    ]
    write_jsonl(out_path, records)
    return records


def stage_enrich(config: RunConfig, terms_path: str, out_path: str) -> list[dict]:
    bases = []
    for lineno, rec in read_jsonl_lines(_require(terms_path, "enrich", "term-path file")):
        where = f"{terms_path}:{lineno}"
        base = TermPath.from_record(rec, where=where)
        try:
            check_base_path(base)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        bases.append(base)
    index = load_kg_index(config)
    lm = load_lm(_require(config.lm_model, "enrich", "term LM checkpoint (lm_model)"))
    candidate_lists = [build_candidates(base, index, cap=config.candidate_cap) for base in bases]
    out = []
    for candidates, choice in zip(candidate_lists, select_best_of_each(candidate_lists, lm)):
        selected = choice.path.to_record()
        selected["perplexity"] = choice.perplexity
        selected["candidate_count"] = len(candidates)
        selected["bridge_slot"] = choice.path.bridge_slot
        out.append(selected)
    write_jsonl(out_path, out)
    return out


def stage_generate(config: RunConfig, paths_path: str, out_path: str) -> list[dict]:
    records = read_jsonl_lines(_require(paths_path, "generate", "term-path file"))
    model = GeneratorModel.load(
        _require(config.generator_model, "generate", "generator checkpoint (generator_model)")
    )
    penalties = BeamPenaltyConfig(alpha=config.alpha, gamma=config.gamma, beam_size=config.beam_size)
    paths = [TermPath.from_record(rec, where=f"{paths_path}:{lineno}") for lineno, rec in records]
    stories = decode_stories(paths, model, penalties)
    out = [
        {
            "story_id": path.story_id,
            "sentences": story.sentences,
            "tokens": story.tokens,
            "text": " ".join(" ".join(s) for s in story.sentences),
            "score": story.score,
            "sentence_spans": [list(span) for span in story.sentence_spans],
            "truncated": story.truncated,
            "bridge": story.bridge,
            "bridge_slot": rec.get("bridge_slot"),
            "origins": rec.get("origins"),
        }
        for path, story, (_lineno, rec) in zip(paths, stories, records)
    ]
    write_jsonl(out_path, out)
    return out


def run_pipeline(config: RunConfig, out_dir: str | None = None, *, recorded_inputs: dict | None = None) -> dict:
    """Execute the configured stages and write outputs plus a manifest.

    Every input is hashed before any stage runs or anything is written, so
    the manifest names the bytes the stages read, in the order they read
    them; the stage list and ``terms_path`` are checked before that.
    ``recorded_inputs`` (path -> sha256, a replayed manifest's inputs) are
    checked in the same pass, in recorded order: one that is not a file, or
    that hashes otherwise, raises InputError.
    """
    out_dir = out_dir or config.out_dir
    recorded = recorded_inputs or {}
    for path in recorded:
        if not os.path.isfile(path):
            raise InputError(f"manifest input missing: {path}")
    unknown = [s for s in config.stages if s not in STAGES]
    if unknown:
        raise InputError(f"unknown pipeline stages {unknown}; valid stages are {list(STAGES)}")
    if not config.stages:
        raise InputError("no pipeline stages enabled")

    inputs: list[str] = []
    if "distill" in config.stages:
        inputs += [config.features_path, config.distiller_model]
        terms_path = os.path.join(out_dir, "terms.jsonl")
    else:
        reader = "enrich" if "enrich" in config.stages else "generate"  # the first stage that reads the file
        terms_path = _require(config.terms_path, reader, "term-path file (terms_path)")
        inputs.append(terms_path)
    if "enrich" in config.stages:
        inputs += [entry.get("path", "") for entry in config.kg] + [config.lm_model]
        paths_path = os.path.join(out_dir, "paths.jsonl")
    else:
        paths_path = terms_path
    if "generate" in config.stages:
        inputs.append(config.generator_model)
    # a checkpoint's values load from its float64 companion, so the manifest names those bytes too
    inputs += [p + COMPANION_SUFFIX for p in (config.distiller_model, config.lm_model, config.generator_model) if p and p in inputs]
    # empty paths and paths that are not files are left for the stages to report
    digests = {p: sha256_file(p) for p in dict.fromkeys([*inputs, *recorded]) if p and os.path.isfile(p)}
    for path, digest in recorded.items():
        if digests[path] != digest:
            raise InputError(f"manifest input changed since the recorded run: {path}")
    os.makedirs(out_dir, exist_ok=True)

    outputs: list[str] = []
    if "distill" in config.stages:
        stage_distill(config, terms_path)
        outputs.append(terms_path)
    if "enrich" in config.stages:
        stage_enrich(config, terms_path, paths_path)
        outputs.append(paths_path)
    if "generate" in config.stages:
        stories_path = os.path.join(out_dir, "stories.jsonl")
        stage_generate(config, paths_path, stories_path)
        outputs.append(stories_path)

    manifest = {
        "format_version": MANIFEST_VERSION,
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "inputs": {p: digests[p] for p in inputs if p in digests},
        "outputs": {os.path.basename(p): sha256_file(p) for p in outputs},
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def rerun_from_manifest(manifest_path: str, out_dir: str | None = None) -> dict:
    """Re-execute a recorded run; input files must hash exactly as recorded."""
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: not a manifest (top level is not a JSON object)")
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise InputError(f"{manifest_path}: unsupported manifest version")
    config = RunConfig.from_dict(manifest.get("config"), where=manifest_path)
    inputs = manifest.get("inputs", {})
    if not isinstance(inputs, dict) or not all(isinstance(digest, str) for digest in inputs.values()):
        raise InputError(f"{manifest_path}: manifest 'inputs' must map each input path to its sha256 digest")
    return run_pipeline(config, out_dir=out_dir, recorded_inputs=inputs)


def evaluate_stories(candidates_path: str, references_path: str) -> dict:
    """Corpus BLEU-1..4 and distinct-1/2 of generated stories against references."""
    cand_records = read_jsonl_lines(candidates_path)
    ref_stories = load_corpus(references_path)
    refs_by_id = {s.story_id: [tok for sent in s.sentences for tok in sent.tokens] for s in ref_stories}
    cands, refs = [], []
    for lineno, rec in cand_records:
        sid, sentences = rec.get("story_id"), rec.get("sentences")
        if not isinstance(sentences, list) or not all(
            isinstance(sent, list) and all(isinstance(tok, str) for tok in sent) for sent in sentences
        ):
            raise InputError(f"{candidates_path}:{lineno}: story record needs a 'sentences' list of token lists")
        if sid not in refs_by_id:
            raise InputError(f"{candidates_path}:{lineno}: no reference story for id {sid!r}")
        cands.append([tok for sent in sentences for tok in sent])
        refs.append(refs_by_id[sid])
    scores = {f"bleu{n}": bleu_n(cands, refs, n) for n in range(1, 5)}
    scores.update({f"distinct{n}": distinct_n(cands, n) for n in (1, 2)})
    scores["stories"] = len(cands)
    return scores
