import collections
import dataclasses
import json
import os
import re
import shutil

import pytest

from conftest import pipeline_config
from helpers import read_jsonl, with_second_line
from storybridge import config as config_module
from storybridge import distill
from storybridge.config import RunConfig, apply_overrides
from storybridge.corpus import StoryRecord, load_corpus, save_corpus
from storybridge.distill import DistillerModel, ImageSequence, load_feature_file, save_feature_file
from storybridge.ioutil import InputError, sha256_file, write_jsonl
from storybridge.params import COMPANION_SUFFIX
from storybridge.pipeline import (
    evaluate_stories,
    rerun_from_manifest,
    run_pipeline,
    stage_enrich,
    stage_generate,
    train_distiller_command,
)


def test_run_config_defaults_match_published_values():
    config = RunConfig()
    assert config.hidden_size == 512
    assert config.heads == 2
    assert config.layers == 4
    assert config.beam_size == 3
    assert config.learning_rate == pytest.approx(1e-3)
    assert config.alpha == pytest.approx(20.0)
    assert config.gamma == pytest.approx(5.0)
    assert distill.TOP_K_OBJECTS == 25  # the paper's cut, a constant rather than a setting


def test_every_lower_bound_names_a_run_config_field():
    # from_dict checks only the bounds of the keys a config holds, so a stale name would be skipped silently
    assert set(config_module._AT_LEAST) <= {f.name for f in dataclasses.fields(RunConfig)}


def test_config_overrides_and_validation():
    config = apply_overrides(RunConfig(), ["hidden_size=64", "stages=enrich,generate"])
    assert config.hidden_size == 64
    assert config.stages == ["enrich", "generate"]
    with pytest.raises(InputError, match="unknown config key"):
        apply_overrides(RunConfig(), ["nope=1"])
    with pytest.raises(InputError, match="unknown config key 'two_hop'"):  # set per kg entry
        apply_overrides(RunConfig(), ["two_hop=off"])
    with pytest.raises(InputError, match="unknown config key 'num_slots'"):  # read from the training features
        apply_overrides(RunConfig(), ["num_slots=3"])
    with pytest.raises(InputError, match=r"unknown config keys \['num_slots'\]"):  # as a manifest of an earlier version holds
        RunConfig.from_dict({"num_slots": 5})
    with pytest.raises(InputError, match="key=value"):
        apply_overrides(RunConfig(), ["hidden_size"])
    with pytest.raises(InputError, match="unknown config keys"):
        RunConfig.from_dict({"hidden_size": 64, "mystery": True})


def test_pipeline_produces_bridged_six_sentence_story(pipeline_run):
    stories = pipeline_run["stories"]
    assert len(stories) == 20
    six = [s for s in stories if len(s["sentences"]) == 6]
    assert six, "expected at least one six-sentence story"
    for story in six:
        assert story["bridge"] is not None
        assert story["bridge"]["head"] == "Dog_Noun"
        assert story["bridge"]["tail"] == "Cake_Noun"
        assert story["bridge_slot"] == 2
        assert len(story["sentence_spans"]) == 6
    five = [s for s in stories if len(s["sentences"]) == 5]
    assert all(s["bridge"] is None for s in five)


def test_pipeline_rerun_from_manifest_is_byte_identical(pipeline_run, tmp_path):
    manifest_path = os.path.join(pipeline_run["out_dir"], "manifest.json")
    second = str(tmp_path / "rerun")
    rerun_from_manifest(manifest_path, out_dir=second)
    for name in ("terms.jsonl", "paths.jsonl", "stories.jsonl", "manifest.json"):
        a = os.path.join(pipeline_run["out_dir"], name)
        b = os.path.join(second, name)
        assert sha256_file(a) == sha256_file(b), name


def test_manifest_records_hashes_of_all_inputs(pipeline_run):
    manifest = pipeline_run["manifest"]
    config = pipeline_run["config"]
    for path in (
        config.features_path,
        config.distiller_model,
        config.lm_model,
        config.generator_model,
        config.kg[0]["path"],
        config.kg[1]["path"],
        *(model + COMPANION_SUFFIX for model in (config.distiller_model, config.lm_model, config.generator_model)),
    ):
        assert manifest["inputs"][path] == sha256_file(path)
    assert set(manifest["outputs"]) == {"terms.jsonl", "paths.jsonl", "stories.jsonl"}


def test_manifest_rejects_tampered_inputs(pipeline_run, tmp_path):
    manifest_path = os.path.join(pipeline_run["out_dir"], "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    kg_path = pipeline_run["config"].kg[0]["path"]
    manifest["inputs"][kg_path] = "0" * 64
    tampered = str(tmp_path / "manifest.json")
    with open(tampered, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(InputError, match="changed since"):
        rerun_from_manifest(tampered, out_dir=str(tmp_path / "out"))


def test_replay_hashes_each_input_and_output_once(pipeline_run, tmp_path, monkeypatch):
    from storybridge import pipeline

    calls = collections.Counter()

    def counted(path):
        calls[path] += 1
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "sha256_file", counted)
    rerun = tmp_path / "rerun"
    manifest = rerun_from_manifest(os.path.join(pipeline_run["out_dir"], "manifest.json"), out_dir=str(rerun))
    assert sha256_file(str(rerun / "manifest.json")) == sha256_file(os.path.join(pipeline_run["out_dir"], "manifest.json"))
    assert calls == collections.Counter([*manifest["inputs"], *(str(rerun / name) for name in manifest["outputs"])])


def test_manifest_records_inputs_as_they_were_before_the_run(pipeline_run, tmp_path, monkeypatch):
    from storybridge import pipeline

    kg = str(tmp_path / "scene.tsv")
    shutil.copyfile(pipeline_run["config"].kg[0]["path"], kg)
    before = sha256_file(kg)
    config = pipeline_config(pipeline_run["world"], str(tmp_path / "run"))
    config.stages = ["enrich"]
    config.terms_path = os.path.join(pipeline_run["out_dir"], "terms.jsonl")
    config.kg[0]["path"] = kg
    stage_enrich = pipeline.stage_enrich

    def enrich_then_rewrite_the_kg(*args):
        out = stage_enrich(*args)
        with open(kg, "a", encoding="utf-8") as fh:
            fh.write("\n")
        return out

    monkeypatch.setattr(pipeline, "stage_enrich", enrich_then_rewrite_the_kg)
    manifest = run_pipeline(config)
    assert manifest["inputs"][kg] == before != sha256_file(kg)
    monkeypatch.undo()
    with pytest.raises(InputError, match=f"changed since the recorded run: {re.escape(kg)}"):
        rerun_from_manifest(str(tmp_path / "run" / "manifest.json"), out_dir=str(tmp_path / "rerun"))


def test_generate_only_stage_runs_from_provided_paths(pipeline_run, tmp_path):
    config = pipeline_config(pipeline_run["world"], str(tmp_path / "gen_only"))
    config.stages = ["generate"]
    config.terms_path = os.path.join(pipeline_run["out_dir"], "paths.jsonl")
    manifest = run_pipeline(config)
    assert list(manifest["outputs"]) == ["stories.jsonl"]
    out = os.path.join(str(tmp_path / "gen_only"), "stories.jsonl")
    assert sha256_file(out) == sha256_file(os.path.join(pipeline_run["out_dir"], "stories.jsonl"))


def test_enrich_and_generate_accept_a_path_with_an_empty_group(pipeline_run, tmp_path):
    # the distiller may predict no term for an image; the path still enriches and generates
    out_dir = pipeline_run["out_dir"]
    bridged = next(rec for rec in read_jsonl(os.path.join(out_dir, "paths.jsonl")) if rec["bridge_slot"] == 2)
    terms = read_jsonl(os.path.join(out_dir, "terms.jsonl"))
    base = next(rec for rec in terms if rec["story_id"] == bridged["story_id"])
    base["groups"][3] = []  # the group that held the bridge's tail
    terms_path, paths_path = str(tmp_path / "terms.jsonl"), str(tmp_path / "paths.jsonl")
    write_jsonl(terms_path, [base])
    config = pipeline_config(pipeline_run["world"], str(tmp_path))
    [selected] = stage_enrich(config, terms_path, paths_path)
    assert selected["bridge_slot"] not in (2, 3)
    assert [] in selected["groups"]
    [story] = stage_generate(config, paths_path, str(tmp_path / "stories.jsonl"))
    assert len(story["sentences"]) == len(selected["groups"])


def test_missing_stage_inputs_name_stage_and_file(pipeline_run, tmp_path):
    config = pipeline_config(pipeline_run["world"], str(tmp_path / "x"))
    config.features_path = str(tmp_path / "absent.jsonl")
    with pytest.raises(InputError, match=r"stage 'distill'.*absent.jsonl"):
        run_pipeline(config)

    config = pipeline_config(pipeline_run["world"], str(tmp_path / "y"))
    config.stages = ["enrich"]
    config.terms_path = ""
    with pytest.raises(InputError, match="stage 'enrich'"):
        run_pipeline(config)

    config = pipeline_config(pipeline_run["world"], str(tmp_path / "z"))
    config.kg = []
    with pytest.raises(InputError, match="knowledge-graph"):
        run_pipeline(config)


@pytest.mark.parametrize("stages", [["generate"], ["enrich", "generate"], ["generate", "enrich"]])
def test_missing_term_path_names_the_first_stage_that_reads_it(pipeline_run, tmp_path, stages):
    config = pipeline_config(pipeline_run["world"], str(tmp_path))
    config.stages = stages
    config.terms_path = ""
    reader = "enrich" if "enrich" in stages else "generate"
    with pytest.raises(InputError, match=rf"^stage '{reader}' needs a term-path file \(terms_path\), but none is configured$"):
        run_pipeline(config)


@pytest.mark.parametrize("stages, message", [(["distill", "polish"], "polish"), ([], "no pipeline stages enabled")])
def test_unknown_stage_rejected(pipeline_run, tmp_path, monkeypatch, stages, message):
    from storybridge import pipeline

    def sha256_file(path):
        raise AssertionError(f"hashed {path} before the stage list was checked")

    monkeypatch.setattr(pipeline, "sha256_file", sha256_file)
    config = pipeline_config(pipeline_run["world"], str(tmp_path / "s"))
    config.stages = stages
    with pytest.raises(InputError, match=message):
        run_pipeline(config)
    assert not (tmp_path / "s").exists()


def test_stage_generate_flags_missing_model(pipeline_run, tmp_path):
    config = pipeline_config(pipeline_run["world"], str(tmp_path))
    config.generator_model = str(tmp_path / "never.json")
    with pytest.raises(InputError, match=r"stage 'generate'.*never.json"):
        stage_generate(config, os.path.join(pipeline_run["out_dir"], "paths.jsonl"), str(tmp_path / "o.jsonl"))


def test_stage_generate_names_the_line_of_a_malformed_path(pipeline_run, tmp_path):
    record = json.dumps({"story_id": "s", "groups": [["a"]]})
    bad = with_second_line(tmp_path, os.path.join(pipeline_run["out_dir"], "paths.jsonl"), record)
    config = pipeline_config(pipeline_run["world"], str(tmp_path / "out"))
    with pytest.raises(InputError, match=re.escape(f"{bad}:2: malformed term-path record")):
        stage_generate(config, bad, str(tmp_path / "o.jsonl"))


def test_evaluate_stories_against_references(pipeline_run):
    scores = evaluate_stories(
        os.path.join(pipeline_run["out_dir"], "stories.jsonl"),
        pipeline_run["world"]["corpus"],
    )
    assert scores["stories"] == 20
    for n in range(1, 5):
        assert 0.0 <= scores[f"bleu{n}"] <= 1.0
    assert scores["bleu1"] > 0.5  # memorized world decodes close to gold
    assert 0.0 < scores["distinct2"] <= 1.0


def test_evaluate_stories_requires_matching_ids(pipeline_run, tmp_path):
    orphan = str(tmp_path / "cand.jsonl")
    write_jsonl(orphan, [{"story_id": "ghost", "sentences": [["hi"]]}])
    with pytest.raises(InputError, match="ghost"):
        evaluate_stories(orphan, pipeline_run["world"]["corpus"])


def test_train_distiller_takes_its_slot_count_from_the_training_features(fixture_world, tmp_path):
    stories = [StoryRecord(s.story_id, s.sentences[:3], s.meta) for s in load_corpus(fixture_world["corpus"])[:3]]
    ids = {story.story_id for story in stories}
    sequences = [ImageSequence(seq.story_id, seq.slots[:3])
                 for seq in load_feature_file(fixture_world["features"]) if seq.story_id in ids]
    corpus_path, features_path = str(tmp_path / "corpus.jsonl"), str(tmp_path / "features.bin")
    save_corpus(corpus_path, stories)
    save_feature_file(features_path, sequences)
    config = RunConfig(hidden_size=8, heads=2, layers=1, ff_multiple=1, epochs=1, corpus_path=corpus_path,
                       features_path=features_path, distiller_model=str(tmp_path / "distiller.json"))
    model = DistillerModel.load(train_distiller_command(config))
    assert model.config.num_slots == 3
    assert model.order_embedding.shape == (3, 8)
