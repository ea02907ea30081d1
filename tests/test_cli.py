import json
import os
import shutil
from unittest import mock

import numpy as np
import pytest

import storybridge.params
from helpers import read_jsonl, with_second_line
from storybridge.cli import EXIT_INPUT, EXIT_OK, main
from storybridge.distill import FEATURE_DIM
from storybridge.ioutil import read_json, sha256_file, write_json
from storybridge.params import COMPANION_SUFFIX, ParameterStore

NO_COMPANION = "checkpoint has no float64 companion"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_make_fixtures_subcommand(tmp_path, capsys):
    out_dir = str(tmp_path / "world")
    code, out, _ = run_cli(capsys, "make-fixtures", "--out-dir", out_dir, "--seed", "3")
    assert code == EXIT_OK
    paths = json.loads(out)
    for role in ("corpus", "text_corpus", "features", "kg_scene", "kg_textrel"):
        assert os.path.exists(paths[role]), role


def run_stage(capsys, pipeline_run, out_dir, stage, terms_path, *settings):
    """One stage run through pipeline over the pipeline_run fixture's config, each setting one --set."""
    sets = [arg for setting in (f"stages={stage}", f"terms_path={terms_path}", *settings) for arg in ("--set", setting)]
    return run_cli(capsys, "pipeline", "--config", pipeline_run["config_path"], *sets, "--out-dir", str(out_dir))


def test_single_stage_pipeline_runs_match_the_full_run(pipeline_run, tmp_path, capsys):
    world, full = pipeline_run["world"], pipeline_run["out_dir"]
    terms = os.path.join(full, "terms.jsonl")
    code, out, _ = run_stage(capsys, pipeline_run, tmp_path / "enrich", "enrich", terms)
    assert code == EXIT_OK and set(json.loads(out)) == {"paths.jsonl"}
    paths = str(tmp_path / "enrich" / "paths.jsonl")
    assert sha256_file(paths) == sha256_file(os.path.join(full, "paths.jsonl"))

    code, out, _ = run_stage(capsys, pipeline_run, tmp_path / "generate", "generate", paths)
    assert code == EXIT_OK and set(json.loads(out)) == {"stories.jsonl"}
    assert sha256_file(str(tmp_path / "generate" / "stories.jsonl")) == sha256_file(os.path.join(full, "stories.jsonl"))

    # each manifest hashes exactly the files its stage read
    read = {
        "enrich": [terms, world["kg_scene"], world["kg_textrel"], world["lm_model"], world["lm_model"] + COMPANION_SUFFIX],
        "generate": [paths, world["generator_model"], world["generator_model"] + COMPANION_SUFFIX],
    }
    for stage, inputs in read.items():
        manifest = read_json(str(tmp_path / stage / "manifest.json"))
        assert manifest["config"]["stages"] == [stage]
        assert manifest["inputs"] == {path: sha256_file(path) for path in inputs}


def test_enrich_two_hop_off_drops_two_hop_candidates(pipeline_run, tmp_path, capsys):
    terms = os.path.join(pipeline_run["out_dir"], "terms.jsonl")
    config = read_json(pipeline_run["config_path"])
    cfg_path = str(tmp_path / "one_hop.json")
    write_json(cfg_path, {**config, "kg": [{**entry, "two_hop": False} for entry in config["kg"]]})
    code, _, _ = run_cli(capsys, "pipeline", "--config", cfg_path, "--set", "stages=enrich", "--set",
                         f"terms_path={terms}", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    with_two = {r["story_id"]: r["candidate_count"] for r in read_jsonl(os.path.join(pipeline_run["out_dir"], "paths.jsonl"))}
    without = {r["story_id"]: r["candidate_count"] for r in read_jsonl(str(tmp_path / "paths.jsonl"))}
    shore_ids = [sid for sid in with_two if "shore" in sid]
    assert shore_ids and all(without[sid] < with_two[sid] for sid in shore_ids)


def test_enrich_with_a_checkpoint_that_is_no_term_lm_exits_two_naming_it(pipeline_run, tmp_path, capsys):
    terms = os.path.join(pipeline_run["out_dir"], "terms.jsonl")
    old_ngram = str(tmp_path / "old_ngram.json")  # the n-gram layout before it shared the parameter store's
    write_json(old_ngram, {"kind": "ngram", "order": 2, "smoothing_k": 1.0, "vocab": ["<unk>"], "counts": [],
                           "context_counts": []})
    cases = [
        (old_ngram, NO_COMPANION),
        (pipeline_run["world"]["distiller_model"], "not a term LM checkpoint (kind 'distiller')"),
    ]
    for i, (lm_path, message) in enumerate(cases):
        code, out, err = run_stage(capsys, pipeline_run, tmp_path / str(i), "enrich", terms, f"lm_model={lm_path}")
        assert code == EXIT_INPUT and out == "" and "Traceback" not in err
        assert f"{lm_path}: {message}" in err
        assert not (tmp_path / str(i) / "paths.jsonl").exists()


def test_removed_stage_subcommands_are_unknown(capsys):
    for command in ("enrich", "generate"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "cfg.json"])
        assert exc.value.code == EXIT_INPUT
        assert "invalid choice" in capsys.readouterr().err


def test_pipeline_subcommand_with_config_and_rerun(pipeline_run, tmp_path, capsys):
    out_dir = str(tmp_path / "cli_run")
    code, out, _ = run_cli(
        capsys,
        "pipeline",
        "--config", pipeline_run["config_path"],
        "--set", f"out_dir={out_dir}",
    )
    assert code == EXIT_OK
    assert set(json.loads(out)) == {"terms.jsonl", "paths.jsonl", "stories.jsonl"}
    assert sha256_file(os.path.join(out_dir, "stories.jsonl")) == sha256_file(
        os.path.join(pipeline_run["out_dir"], "stories.jsonl")
    )

    rerun_dir = str(tmp_path / "cli_rerun")
    code, _, _ = run_cli(
        capsys,
        "pipeline",
        "--from-manifest", os.path.join(out_dir, "manifest.json"),
        "--out-dir", rerun_dir,
    )
    assert code == EXIT_OK
    assert sha256_file(os.path.join(rerun_dir, "stories.jsonl")) == sha256_file(
        os.path.join(out_dir, "stories.jsonl")
    )


def test_eval_subcommand(pipeline_run, capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--candidates", os.path.join(pipeline_run["out_dir"], "stories.jsonl"),
        "--references", pipeline_run["world"]["corpus"],
    )
    assert code == EXIT_OK
    scores = json.loads(out)
    assert {"bleu1", "bleu2", "bleu3", "bleu4", "distinct1", "distinct2", "stories"} <= set(scores)


def test_training_subcommands_wire_through(fixture_world, tmp_path, capsys):
    # tiny epoch counts: this checks the plumbing, quality is covered elsewhere
    cfg = {
        "hidden_size": 12,
        "heads": 2,
        "layers": 1,
        "decoder_layers": 1,
        "ff_multiple": 2,
        "epochs": 2,
        "learning_rate": 1e-3,
        "warmup_steps": 10,
        "lm_kind": "ngram",
        "corpus_path": fixture_world["corpus"],
        "text_corpus_path": fixture_world["text_corpus"],
        "features_path": fixture_world["features"],
        "out_dir": str(tmp_path),
    }
    cfg_path = str(tmp_path / "train.json")
    write_json(cfg_path, cfg)

    code, out, _ = run_cli(capsys, "train-distiller", "--config", cfg_path, "--out", str(tmp_path / "d.json"))
    assert code == EXIT_OK and os.path.exists(str(tmp_path / "d.json"))
    code, out, _ = run_cli(capsys, "train-lm", "--config", cfg_path, "--out", str(tmp_path / "lm.json"))
    assert code == EXIT_OK and os.path.exists(str(tmp_path / "lm.json"))
    code, out, _ = run_cli(capsys, "train-generator", "--config", cfg_path, "--out", str(tmp_path / "g.json"))
    assert code == EXIT_OK and os.path.exists(str(tmp_path / "g.json"))
    # fine-tuning continues from the checkpoint it is given
    code, out, _ = run_cli(
        capsys,
        "train-generator",
        "--config", cfg_path,
        "--finetune-from", str(tmp_path / "g.json"),
        "--out", str(tmp_path / "g2.json"),
    )
    assert code == EXIT_OK and os.path.exists(str(tmp_path / "g2.json"))


def test_finetune_on_words_outside_the_checkpoint_vocabulary_exits_two(fixture_world, tmp_path, capsys):
    from storybridge.corpus import build_training_pairs, load_corpus
    from storybridge.generate import GeneratorModel

    tiny = ["--set", "hidden_size=8", "--set", "layers=1", "--set", "decoder_layers=1", "--set", "epochs=1"]
    pre, out = str(tmp_path / "pre.json"), str(tmp_path / "fine.json")
    code, _, _ = run_cli(capsys, "train-generator", *tiny, "--set", f"corpus_path={fixture_world['text_corpus']}", "--out", pre)
    assert code == EXIT_OK
    vocab = GeneratorModel.load(pre).token_to_id.keys()
    pairs = build_training_pairs(load_corpus(fixture_world["corpus"]), mode="generator")
    new_words = {ex.story_id: sorted({tok for sent in ex.sentences for tok in sent} - vocab) for ex in pairs}
    story_id, words = next((sid, words) for sid, words in new_words.items() if words)
    code, _, err = run_cli(
        capsys, "train-generator", *tiny, "--set", f"corpus_path={fixture_world['corpus']}",
        "--finetune-from", pre, "--out", out,
    )
    assert code == EXIT_INPUT
    assert fixture_world["corpus"] in err and repr(story_id) in err and str(words) in err and pre in err
    assert "Traceback" not in err and not os.path.exists(out)


def test_missing_input_exits_two(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    write_json(cfg_path, {
        "stages": ["enrich"],
        "terms_path": str(tmp_path / "ghost.jsonl"),
        "kg": [{"path": str(tmp_path / "ghost.tsv")}],
        "lm_model": str(tmp_path / "ghost_lm.json"),
    })
    code, _, err = run_cli(capsys, "pipeline", "--config", cfg_path, "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_INPUT
    assert "input error" in err


def test_bad_config_key_exits_two(tmp_path, capsys):
    cfg_path = str(tmp_path / "bad.json")
    write_json(cfg_path, {"not_a_field": 1})
    code, _, err = run_cli(capsys, "pipeline", "--config", cfg_path)
    assert code == EXIT_INPUT
    assert "not_a_field" in err


# the generator checkpoint's mean sentence length, the paper's top 25 objects and the LM's 10% held out are
# no settings: an older config or manifest may still name them
@pytest.mark.parametrize("setting", ["mystery=1", "sentence_budget=12", "top_k_objects=10", "holdout_fraction=0.2"])
def test_bad_override_exits_two(capsys, tmp_path, setting):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "pipeline", "--set", setting, "--out-dir", str(out_dir))
    assert code == EXIT_INPUT and out == "" and "Traceback" not in err
    assert f"unknown config key {setting.split('=')[0]!r}" in err
    assert not out_dir.exists()


def test_num_slots_is_no_setting(tmp_path, capsys):
    # the distiller's slot count comes from its training features
    out = str(tmp_path / "d.json")
    code, _, err = run_cli(capsys, "train-distiller", "--set", "num_slots=3", "--out", out)
    assert code == EXIT_INPUT and "Traceback" not in err
    assert "unknown config key 'num_slots'" in err
    assert not os.path.exists(out)


def test_four_image_world_runs_distill_enrich_and_generate(pipeline_run, tmp_path, capsys):
    # a distiller trained on four-image stories writes four-group paths, which enrich and generate take as they are
    from storybridge.corpus import StoryRecord, load_corpus, save_corpus
    from storybridge.distill import ImageSequence, load_feature_file, save_feature_file

    world = pipeline_run["world"]
    corpus, features = str(tmp_path / "corpus4.jsonl"), str(tmp_path / "features4.bin")
    save_corpus(corpus, [StoryRecord(s.story_id, s.sentences[:4], s.meta) for s in load_corpus(world["corpus"])])
    save_feature_file(features, [ImageSequence(seq.story_id, seq.slots[:4]) for seq in load_feature_file(world["features"])])
    distiller = str(tmp_path / "distiller4.json")
    code, _, err = run_cli(capsys, "train-distiller", "--set", f"corpus_path={corpus}", "--set", f"features_path={features}",
                           "--set", "hidden_size=8", "--set", "layers=1", "--set", "ff_multiple=1", "--set", "epochs=1",
                           "--out", distiller)
    assert code == EXIT_OK, err
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "pipeline", "--config", pipeline_run["config_path"], "--set", f"features_path={features}",
                           "--set", f"distiller_model={distiller}", "--out-dir", str(out_dir))
    assert code == EXIT_OK, err
    paths = read_jsonl(str(out_dir / "paths.jsonl"))
    stories = read_jsonl(str(out_dir / "stories.jsonl"))
    assert len(paths) == len(stories) == 20
    for path, story in zip(paths, stories):
        assert len(path["groups"]) == (5 if path["bridge"] else 4)
        assert len(story["sentences"]) == len(path["groups"])


def test_story_with_more_images_than_the_distiller_slots_exits_two(pipeline_run, tmp_path, capsys):
    from storybridge.distill import ImageSequence, ObjectFeatureSet, load_feature_file, save_feature_file

    first, *rest = load_feature_file(pipeline_run["config"].features_path)
    extra = ObjectFeatureSet(5, first.slots[0].features, first.slots[0].confidences)
    sixth = str(tmp_path / "features.bin")
    save_feature_file(sixth, [ImageSequence(first.story_id, [*first.slots, extra]), *rest])
    out_dir = tmp_path / "out"
    code, out, err = run_stage(capsys, pipeline_run, out_dir, "distill", "", f"features_path={sixth}")
    assert code == EXIT_INPUT and out == "" and "Traceback" not in err
    distiller = pipeline_run["config"].distiller_model
    assert f"{sixth}: story {first.story_id!r} has 6 images, but the distiller {distiller} was trained for at most 5" in err
    assert not (out_dir / "terms.jsonl").exists()


def test_distiller_checkpoint_of_an_earlier_version_exits_two_naming_the_file(pipeline_run, tmp_path, capsys):
    # checkpoints of earlier versions record the attention width, which is now always hidden_size
    store, extra = ParameterStore.load(pipeline_run["config"].distiller_model)
    extra["config"]["attention_size"] = 0
    old = str(tmp_path / "distiller.json")
    store.save(old, extra=extra)
    out_dir = tmp_path / "out"
    code, out, err = run_stage(capsys, pipeline_run, out_dir, "distill", "", f"distiller_model={old}")
    assert code == EXIT_INPUT and out == "" and "Traceback" not in err
    assert f"{old}: checkpoint does not fit the model" in err and "attention_size" in err
    assert not (out_dir / "terms.jsonl").exists()


def test_runtime_failure_exits_one(pipeline_run, tmp_path, capsys, monkeypatch):
    import storybridge.pipeline

    def fail(*_args, **_kwargs):
        raise RuntimeError("decoder blew up")

    monkeypatch.setattr(storybridge.pipeline, "stage_generate", fail)
    code, _, err = run_stage(capsys, pipeline_run, tmp_path, "generate", os.path.join(pipeline_run["out_dir"], "paths.jsonl"))
    assert code == 1
    assert "RuntimeError: decoder blew up" in err


def json_only(text: str):
    """A writer of a checkpoint JSON without its float64 companion, as versions before the companion left them."""

    def write(path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    return write


def saved_pair(extra, version: int = 1):
    """A writer of a consistent checkpoint pair with no parameters, this extra and this format_version."""

    def write(path: str) -> None:
        with mock.patch.object(storybridge.params, "FORMAT_VERSION", version):
            ParameterStore(0).save(path, extra=extra)

    return write


@pytest.mark.parametrize(
    "write,message",
    [
        (json_only("{not json"), NO_COMPANION),
        (json_only(json.dumps([1, 2])), NO_COMPANION),
        (saved_pair({}), "not a generator checkpoint"),
        (saved_pair({"kind": "gru_lm"}), "not a generator checkpoint"),
        (saved_pair([1]), "checkpoint needs an 'extra' object"),
        (saved_pair({"kind": "generator"}, version=7), "unsupported checkpoint format_version 7"),
        ("distiller_model", "not a generator checkpoint"),  # a checkpoint of another kind, with its companion
    ],
    ids=["not-json", "json-list", "no-kind", "wrong-kind", "extra-not-object", "wrong-version", "wrong-kind-companion"],
)
def test_bad_generator_checkpoint_exits_two_naming_the_file(pipeline_run, tmp_path, capsys, write, message):
    broken = str(tmp_path / "broken.json")
    if write == "distiller_model":
        for suffix in ("", COMPANION_SUFFIX):
            shutil.copyfile(pipeline_run["world"][write] + suffix, broken + suffix)
    else:
        write(broken)
    paths = os.path.join(pipeline_run["out_dir"], "paths.jsonl")
    code, _, err = run_stage(capsys, pipeline_run, tmp_path / "out", "generate", paths, f"generator_model={broken}")
    assert code == EXIT_INPUT
    assert f"{broken}: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "write,message",
    [
        (json_only("{not json"), NO_COMPANION),
        (saved_pair({"kind": "generator"}), "not a term LM checkpoint (kind 'generator')"),
        (saved_pair({"kind": "ngram", "order": 2}), "checkpoint does not fit the model"),
    ],
    ids=["not-json", "wrong-kind", "ngram-missing-counts"],
)
def test_bad_lm_checkpoint_exits_two_naming_the_file(pipeline_run, tmp_path, capsys, write, message):
    broken = str(tmp_path / "broken_lm.json")
    write(broken)
    terms = os.path.join(pipeline_run["out_dir"], "terms.jsonl")
    code, _, err = run_stage(capsys, pipeline_run, tmp_path / "out", "enrich", terms, f"lm_model={broken}")
    assert code == EXIT_INPUT
    assert f"{broken}: {message}" in err


def test_replay_after_a_companion_value_changed_exits_two_naming_it(pipeline_run, tmp_path, capsys):
    # a checkpoint's values load from its companion, so the manifest must bind the companion's bytes too
    generator = str(tmp_path / "models" / "generator.json")
    os.makedirs(os.path.dirname(generator))
    for suffix in ("", COMPANION_SUFFIX):
        shutil.copyfile(pipeline_run["world"]["generator_model"] + suffix, generator + suffix)
    paths = os.path.join(pipeline_run["out_dir"], "paths.jsonl")
    code, _, _ = run_stage(capsys, pipeline_run, tmp_path / "run", "generate", paths, f"generator_model={generator}")
    assert code == EXIT_OK
    companion = generator + COMPANION_SUFFIX
    with open(companion, "r+b") as fh:  # negate the first value: still finite, and the JSON is untouched
        fh.readline()
        value = np.frombuffer(fh.read(8), dtype="<f8")
        fh.seek(-8, os.SEEK_CUR)
        fh.write((-value).tobytes())
    again = tmp_path / "again"
    code, out, err = run_cli(capsys, "pipeline", "--from-manifest", str(tmp_path / "run" / "manifest.json"), "--out-dir", str(again))
    assert code == EXIT_INPUT and out == ""
    assert f"manifest input changed since the recorded run: {companion}" in err
    assert not (again / "stories.jsonl").exists() and not (again / "manifest.json").exists()


def test_enrich_bad_term_path_exits_two_naming_the_line(pipeline_run, tmp_path, capsys):
    from storybridge.ioutil import write_jsonl

    bridged = str(tmp_path / "bridged.jsonl")
    first_bridged = next(rec for rec in read_jsonl(os.path.join(pipeline_run["out_dir"], "paths.jsonl")) if rec["bridge"])
    write_jsonl(bridged, [first_bridged])
    code, _, err = run_stage(capsys, pipeline_run, tmp_path / "out", "enrich", bridged)
    assert code == EXIT_INPUT and "Traceback" not in err
    assert f"{bridged}:1: base path already carries a bridge" in err


@pytest.mark.parametrize("stage", ["enrich", "generate"])
def test_term_path_without_groups_exits_two_naming_the_line(pipeline_run, tmp_path, capsys, stage):
    empty = with_second_line(tmp_path, os.path.join(pipeline_run["out_dir"], "terms.jsonl"),
                             json.dumps({"story_id": "empty", "groups": [], "origins": [], "bridge": None}))
    out_dir = tmp_path / "out"
    code, out, err = run_stage(capsys, pipeline_run, out_dir, stage, empty)
    assert code == EXIT_INPUT and out == "" and "Traceback" not in err
    assert f"{empty}:2: malformed term-path record (term path has no groups)" in err
    assert not (out_dir / "manifest.json").exists()


BAD_GROUPS = "every group must be a list of strings"
BAD_ORIGINS = "origins must be ['slot', 0], ['slot', 1], ... in order, and ['bridge', k] between slots k and k + 1"
BRIDGE = {"head": "a", "relations": ["r"], "middle": None, "tail": "b"}


@pytest.mark.parametrize("stage", ["enrich", "generate"])
@pytest.mark.parametrize(
    "groups, origins, bridge, message",
    [
        ("ab", [["slot", 0], ["slot", 1]], None, BAD_GROUPS),
        ([[1, 2]], [["slot", 0]], None, BAD_GROUPS),
        (["a", "b"], [["slot", 0], ["slot", 1]], None, BAD_GROUPS),
        ([["a"]], [["slot", 7]], None, BAD_ORIGINS),
        ([["a"], ["b"]], [["slot", 1], ["slot", 0]], None, BAD_ORIGINS),
        ([["a"], ["b"]], [["slot", 0], ["image", 1]], None, BAD_ORIGINS),
        ([["a"], ["b"]], ["slot", "slot"], None, BAD_ORIGINS),
        ([["a"], ["b"]], [["slot", 0], ["slot", 1.0]], None, BAD_ORIGINS),
        ([["a"], ["a", "r", "b"], ["b"]], [["slot", 0], ["bridge", 1], ["slot", 1]], BRIDGE, BAD_ORIGINS),
    ],
    ids=["groups a string", "integer terms", "string groups", "slot out of range", "slots out of order",
         "unknown origin kind", "origins not pairs", "float slot", "bridge out of range"],
)
def test_term_path_of_the_wrong_shape_exits_two_naming_the_line(
    pipeline_run, tmp_path, capsys, stage, groups, origins, bridge, message
):
    record = {"story_id": "bad", "groups": groups, "origins": origins, "bridge": bridge}
    bad = with_second_line(tmp_path, os.path.join(pipeline_run["out_dir"], "terms.jsonl"), json.dumps(record))
    out_dir = tmp_path / "out"
    code, out, err = run_stage(capsys, pipeline_run, out_dir, stage, bad)
    assert code == EXIT_INPUT and out == "" and "Traceback" not in err
    assert f"{bad}:2: malformed term-path record ({message})" in err
    assert not (out_dir / "manifest.json").exists()


def test_enrich_non_object_line_exits_two_naming_the_line(pipeline_run, tmp_path, capsys):
    bad = with_second_line(tmp_path, os.path.join(pipeline_run["out_dir"], "terms.jsonl"), "[1]")
    code, _, err = run_stage(capsys, pipeline_run, tmp_path / "out", "enrich", bad)
    assert code == EXIT_INPUT
    assert f"{bad}:2: expected a JSON object" in err


def test_generate_non_object_line_exits_two_naming_the_line(pipeline_run, tmp_path, capsys):
    bad = with_second_line(tmp_path, os.path.join(pipeline_run["out_dir"], "paths.jsonl"), "[1]")
    code, _, err = run_stage(capsys, pipeline_run, tmp_path / "out", "generate", bad)
    assert code == EXIT_INPUT
    assert f"{bad}:2: expected a JSON object" in err


@pytest.mark.parametrize("bad_file", ["candidates", "references"])
def test_eval_non_object_line_exits_two_naming_the_line(pipeline_run, tmp_path, capsys, bad_file):
    files = {
        "candidates": os.path.join(pipeline_run["out_dir"], "stories.jsonl"),
        "references": pipeline_run["world"]["corpus"],
    }
    files[bad_file] = bad = with_second_line(tmp_path, files[bad_file], "[1]")
    code, _, err = run_cli(capsys, "eval", "--candidates", files["candidates"], "--references", files["references"])
    assert code == EXIT_INPUT
    assert f"{bad}:2: expected a JSON object" in err


def edited_features(tmp_path, source, edit):
    """A copy of the feature container at source, its header and raw rows passed through edit; its path.

    edit takes the header (a dict) and the rows (bytes) and returns the header line (a str) and the rows.
    """
    with open(source, "rb") as fh:
        header, rows = json.loads(fh.readline()), fh.read()
    header_line, rows = edit(header, rows)
    out = str(tmp_path / "bad_features.bin")
    with open(out, "wb") as fh:
        fh.write(header_line.encode("utf-8") + b"\n" + rows)
    return out


def first_image(change):
    """An edit that replaces the header's first image by change(image)."""
    return lambda header, rows: (json.dumps({**header, "images": [change(header["images"][0]), *header["images"][1:]]}), rows)


def first_image_one_object(**fields):
    """An edit that keeps only the first object of the header's first image, then sets fields on that image."""
    row_bytes = FEATURE_DIM * 8

    def edit(header, rows):
        first, rest = header["images"][0], header["images"][1:]
        image = {**first, "objects": 1, "confidences": first["confidences"][:1], **fields}
        return json.dumps({**header, "images": [image, *rest]}), rows[:row_bytes] + rows[first["objects"] * row_bytes :]

    return edit


JSONL_RECORD = json.dumps({"story_id": "x", "image_index": 0, "objects": [{"confidence": 1.0, "feature": [0.0] * 2048}]})
NOT_A_CONTAINER = "not an object-feature container (format storybridge-features, version 2"
BAD_IMAGE = "header image 0 needs a story_id, an integer image_index, objects >= 1 and as many finite confidences"
BAD_SIZE = "the float64 rows take"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda header, rows: (json.dumps(header), np.float64(np.nan).tobytes() + rows[8:]), "feature values must be finite"),
        (first_image(lambda image: {**image, "confidences": [float("inf"), *image["confidences"][1:]]}), BAD_IMAGE),
        (lambda header, rows: (json.dumps(header), rows[:-8]), BAD_SIZE),
        (lambda header, rows: (json.dumps(header), rows + rows[:8]), BAD_SIZE),
        (lambda header, rows: (JSONL_RECORD, b""), NOT_A_CONTAINER),
        (lambda header, rows: (json.dumps({**header, "version": 1}), rows), NOT_A_CONTAINER),
        (lambda header, rows: (json.dumps({**header, "format": "features"}), rows), NOT_A_CONTAINER),
        (lambda header, rows: ("[]", rows), NOT_A_CONTAINER),
        (first_image(lambda image: {**image, "image_index": "0"}), BAD_IMAGE),
        (first_image(lambda image: {**image, "objects": 0, "confidences": []}), BAD_IMAGE),
        (first_image(lambda image: {**image, "confidences": image["confidences"][1:]}), BAD_IMAGE),
        (first_image(lambda image: {**image, "image_index": 7}), "story 'vis-picnic0': image_index values must be consecutive"),
        (first_image(lambda image: {**image, "image_index": False}), BAD_IMAGE),
        (first_image_one_object(objects=True), BAD_IMAGE),
        (first_image_one_object(confidences=[True]), BAD_IMAGE),
        # JSON integers past float range, which no float64 holds
        (first_image(lambda image: {**image, "confidences": [10**400, *image["confidences"][1:]]}), BAD_IMAGE),
        (first_image(lambda image: {**image, "confidences": [-(10**400), *image["confidences"][1:]]}), BAD_IMAGE),
    ],
    ids=["nan feature", "infinite confidence", "truncated rows", "trailing values", "jsonl file", "wrong version",
         "wrong format", "header not an object", "string index", "no objects", "too few confidences", "index gap",
         "boolean index", "boolean objects", "boolean confidence", "confidence past float range",
         "negative confidence past float range"],
)
def test_malformed_feature_file_exits_two_naming_the_file(pipeline_run, tmp_path, capsys, edit, message):
    bad = edited_features(tmp_path, pipeline_run["config"].features_path, edit)
    out_dir = tmp_path / "out"
    code, out, err = run_stage(capsys, pipeline_run, out_dir, "distill", "", f"features_path={bad}")
    assert code == EXIT_INPUT and out == "" and "Traceback" not in err
    assert f"{bad}: {message}" in err
    assert not (out_dir / "terms.jsonl").exists()


def test_train_distiller_refuses_a_jsonl_feature_file(fixture_world, tmp_path, capsys):
    jsonl = str(tmp_path / "features.jsonl")
    with open(jsonl, "w", encoding="utf-8") as fh:
        fh.write(JSONL_RECORD + "\n")
    out = str(tmp_path / "d.json")
    code, _, err = run_cli(capsys, "train-distiller", "--set", f"corpus_path={fixture_world['corpus']}",
                           "--set", f"features_path={jsonl}", "--out", out)
    assert code == EXIT_INPUT and "Traceback" not in err
    assert f"{jsonl}: {NOT_A_CONTAINER}" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "record",
    [
        {"story_id": "s"},
        {"story_id": "s", "sentences": "a b"},
        {"story_id": "s", "sentences": ["a", "b"]},
        {"story_id": "s", "sentences": [["a", 1]]},
    ],
    ids=["missing", "string", "flat list", "non-string token"],
)
def test_eval_story_without_token_lists_exits_two_naming_the_line(pipeline_run, tmp_path, capsys, record):
    bad = with_second_line(tmp_path, os.path.join(pipeline_run["out_dir"], "stories.jsonl"), json.dumps(record))
    code, _, err = run_cli(capsys, "eval", "--candidates", bad, "--references", pipeline_run["world"]["corpus"])
    assert code == EXIT_INPUT
    assert f"{bad}:2: story record needs a 'sentences' list of token lists" in err


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda m: [], "not a manifest"),
        (lambda m: {"format_version": m["format_version"]}, "config must be an object"),
        (lambda m: {**m, "inputs": []}, "'inputs' must map"),
        (lambda m: {**m, "inputs": {path: None for path in m["inputs"]}}, "'inputs' must map"),
        (lambda m: {**m, "config": {**m["config"], "num_slots": 5}}, "unknown config keys ['num_slots']"),
        # settings of earlier versions, now read from the data or fixed by the paper, at their old defaults
        (lambda m: {**m, "config": {**m["config"], "sentence_budget": 0}}, "unknown config keys ['sentence_budget']"),
        (lambda m: {**m, "config": {**m["config"], "top_k_objects": 25}}, "unknown config keys ['top_k_objects']"),
        (lambda m: {**m, "config": {**m["config"], "holdout_fraction": 0.1}}, "unknown config keys ['holdout_fraction']"),
    ],
    ids=["list", "no config", "inputs list", "digest not a string", "num_slots", "sentence_budget", "top_k_objects",
         "holdout_fraction"],
)
def test_malformed_manifest_exits_two_naming_it(pipeline_run, tmp_path, capsys, change, message):
    with open(os.path.join(pipeline_run["out_dir"], "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = str(tmp_path / "manifest.json")
    write_json(bad, change(manifest))
    out_dir = str(tmp_path / "rerun")
    code, _, err = run_cli(capsys, "pipeline", "--from-manifest", bad, "--out-dir", out_dir)
    assert code == EXIT_INPUT
    assert f"{bad}:" in err and message in err
    assert not os.path.exists(out_dir)


# ------------------------------------------------------------ settings: one override path

DEDICATED_FLAGS = [
    ("train-distiller", "--out", "distiller_model", "d.json", "other.json"),
    ("train-lm", "--out", "lm_model", "lm.json", "other.json"),
    ("train-generator", "--out", "generator_model", "g.json", "other.json"),
]


@pytest.mark.parametrize(
    "command,flag,field,value,other", DEDICATED_FLAGS, ids=[f"{c} {f}" for c, f, *_ in DEDICATED_FLAGS]
)
def test_dedicated_flag_is_shorthand_for_set(command, flag, field, value, other):
    from storybridge.cli import build_parser, load_config
    from storybridge.config import RunConfig

    parse = build_parser().parse_args
    by_flag = load_config(parse([command, flag, value]))
    assert by_flag == load_config(parse([command, "--set", f"{field}={value}"]))
    assert by_flag != RunConfig()
    # the flag wins over a conflicting --set, wherever the --set stands
    assert load_config(parse([command, "--set", f"{field}={other}", flag, value])) == by_flag
    assert load_config(parse([command, flag, value, "--set", f"{field}={other}"])) == by_flag


@pytest.mark.parametrize(
    "argv,key",
    [
        (["train-lm", "--set", "epochs=ten"], "epochs"),
        (["pipeline", "--set", "candidate_cap=x"], "candidate_cap"),
        (["pipeline", "--set", "beam_size=3.5"], "beam_size"),
        (["pipeline", "--set", "alpha=high"], "alpha"),
        (["pipeline", "--set", "kg=scene.tsv"], "kg[0]"),
        (["pipeline", "--set", f"beam_size={10**20}"], "beam_size"),  # past int64
    ],
    ids=["set-epochs", "cap", "beam", "alpha", "set-kg", "beam-past-int64"],
)
def test_unparsable_setting_exits_two_naming_the_key(capsys, argv, key):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field,value,rule",
    [(field, value, "must be at least") for field, value in (
        ("beam_size", 0), ("alpha", -1), ("gamma", -0.5), ("candidate_cap", 0), ("ngram_order", 0),
        ("lm_hidden_size", 0), ("heads", 0), ("hidden_size", 0), ("learning_rate", -1), ("smoothing_k", -1),
        ("epochs", -1), ("warmup_steps", -5), ("layers", 0), ("decoder_layers", 0), ("ff_multiple", 0),
        ("max_terms_per_image", 0), ("max_sentence_tokens", 0), ("seed", -1),
    )] + [("hidden_size", 33, "must be even"),  # each sine of the position tables is paired with a cosine
          ("lm_kind", "lstm", "must be gru or ngram")],
    ids=[
        "beam", "alpha", "gamma", "cap", "ngram-order", "lm-hidden-size", "heads", "hidden-size", "learning-rate",
        "smoothing-k", "epochs", "warmup-steps", "layers", "decoder-layers", "ff-multiple", "max-terms-per-image",
        "max-sentence-tokens", "seed", "odd-hidden-size", "lm-kind",
    ],
)
def test_out_of_range_setting_exits_two_naming_the_field(pipeline_run, tmp_path, capsys, field, value, rule):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "pipeline", "--config", pipeline_run["config_path"], "--set", f"{field}={value}",
                             "--out-dir", str(out_dir))
    assert code == EXIT_INPUT and out == ""
    assert f"{field} {rule}" in err and "Traceback" not in err
    cfg_path = str(tmp_path / "cfg.json")
    write_json(cfg_path, {**read_json(pipeline_run["config_path"]), field: value})
    code, out, err = run_cli(capsys, "pipeline", "--config", cfg_path, "--out-dir", str(out_dir))
    assert code == EXIT_INPUT and out == ""
    assert f"{cfg_path}: {field} {rule}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "field,raw",
    [("learning_rate", "inf"), ("learning_rate", "nan"), ("learning_rate", "1e309"), ("learning_rate", "-inf"),
     ("alpha", "nan"), ("gamma", "inf"), ("smoothing_k", "nan")],
)
def test_non_finite_setting_exits_two_naming_the_field(fixture_world, tmp_path, capsys, field, raw):
    # a non-finite learning rate once trained to a checkpoint of non-finite weights that every loader refuses
    out = str(tmp_path / "generator.json")
    corpus = f"corpus_path={fixture_world['corpus']}"
    code, _, err = run_cli(capsys, "train-generator", "--set", corpus, "--set", "epochs=1", "--set", f"{field}={raw}",
                           "--out", out)
    assert code == EXIT_INPUT and "Traceback" not in err
    assert f"override: {field} must be a finite number" in err
    cfg_path = tmp_path / "cfg.json"
    json_value = {"inf": "1e999", "1e309": "1e309", "-inf": "-1e999", "nan": "NaN"}[raw]
    cfg_path.write_text(f'{{"{field}": {json_value}, "epochs": 1}}', encoding="utf-8")
    code, _, err = run_cli(capsys, "train-generator", "--config", str(cfg_path), "--set", corpus, "--out", out)
    assert code == EXIT_INPUT and "Traceback" not in err
    assert f"{cfg_path}: {field} must be a finite number" in err
    assert not os.path.exists(out)


def test_an_int_past_float_range_in_a_float_field_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"gamma": 1' + "0" * 400 + "}", encoding="utf-8")
    code, _, err = run_cli(capsys, "pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_INPUT and f"{cfg_path}: gamma must be a finite number" in err
    assert not (tmp_path / "out").exists()


def test_hidden_size_that_heads_do_not_divide_exits_two_naming_both(pipeline_run, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "pipeline", "--config", pipeline_run["config_path"], "--set", "hidden_size=32",
                             "--set", "heads=3", "--out-dir", str(out_dir))
    assert code == EXIT_INPUT and out == "" and "Traceback" not in err
    assert "hidden_size must be a multiple of heads, got hidden_size=32 and heads=3" in err
    assert not out_dir.exists()


def test_train_lm_holding_out_the_whole_corpus_exits_two(fixture_world, tmp_path, capsys):
    from storybridge.corpus import load_corpus, save_corpus

    corpus_path = str(tmp_path / "corpus.jsonl")
    save_corpus(corpus_path, load_corpus(fixture_world["corpus"])[:1])  # one story, one term sequence
    out = str(tmp_path / "lm.json")
    code, _, err = run_cli(capsys, "train-lm", "--set", f"corpus_path={corpus_path}", "--out", out)
    assert code == EXIT_INPUT and "Traceback" not in err
    assert "holding out 10% of 1 term sequences (at least one) would hold out all of them" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["train-distiller", "train-lm", "train-generator"])
def test_training_on_an_empty_corpus_exits_two_naming_it(fixture_world, tmp_path, capsys, command):
    empty, empty_text = str(tmp_path / "empty.jsonl"), str(tmp_path / "empty_text.jsonl")
    for path in (empty, empty_text):
        open(path, "w", encoding="utf-8").close()
    out = str(tmp_path / "model.json")
    code, _, err = run_cli(capsys, command, "--set", f"corpus_path={empty}", "--set", f"text_corpus_path={empty_text}",
                           "--set", f"features_path={fixture_world['features']}", "--out", out)
    assert code == EXIT_INPUT and "Traceback" not in err
    named = empty if command == "train-distiller" else f"{empty} or {empty_text}"  # the distiller reads no text corpus
    assert f"{command}: no story to train on in {named}" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "config,key",
    [
        ({"beam_size": "3"}, "beam_size"),
        ({"epochs": 2.5}, "epochs"),
        ({"alpha": True}, "alpha"),
        ({"kg": [{"path": "scene.tsv", "two_hop": "no"}]}, "kg[0].two_hop"),
        ({"kg": [{"path": "scene.tsv", "hops": 2}]}, "kg[0]"),
        ({"stages": "distill"}, "stages"),
    ],
    ids=["beam-string", "epochs-float", "alpha-bool", "kg-two-hop-word", "kg-unknown-key", "stages"],
)
def test_ill_typed_config_file_exits_two_naming_file_and_key(tmp_path, capsys, config, key):
    cfg_path = str(tmp_path / "cfg.json")
    write_json(cfg_path, config)
    code, _, err = run_cli(capsys, "pipeline", "--config", cfg_path, "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_INPUT
    assert cfg_path in err and key in err and "Traceback" not in err
    assert not os.path.exists(str(tmp_path / "out"))


def test_set_parses_by_declared_type_over_an_int_in_a_float_field(tmp_path):
    from storybridge.cli import build_parser, load_config

    cfg_path = str(tmp_path / "cfg.json")
    write_json(cfg_path, {"learning_rate": 1, "alpha": 20})
    args = build_parser().parse_args(["train-lm", "--config", cfg_path, "--set", "learning_rate=0.003"])
    config = load_config(args)
    assert config.learning_rate == 0.003
    assert type(config.alpha) is int  # a valid value stays as written


def test_readme_quick_start_uses_real_flags_and_fields():
    import shlex

    from storybridge.cli import build_parser
    from storybridge.config import RunConfig, apply_overrides

    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("<!-- quick start: begin -->")[1].split("<!-- quick start: end -->")[0]
    config_json = block.split("<<'EOF'\n")[1].split("\nEOF\n")[0]
    config = RunConfig.from_dict(json.loads(config_json), where="README quick start")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("storybridge ")]
    assert [argv[1] for argv in commands] == [
        "make-fixtures", "train-distiller", "train-lm", "train-generator", "pipeline", "eval",
    ]
    parser = build_parser()
    for argv in commands:
        apply_overrides(config, getattr(parser.parse_args(argv[1:]), "set", []))
    # every command of the CLI reference parses; [...] marks optional flags
    reference = text.split("\n## CLI\n")[1].split("\n## ")[0]
    lines = [line for line in reference.replace("\\\n", " ").splitlines() if line.startswith("storybridge ")]
    assert lines
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line.replace("[", "").replace("]", ""))[1:])
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")
        apply_overrides(RunConfig(), getattr(args, "set", []))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--candidates", "s.jsonl", "--references", "r.jsonl", "--config", "cfg.json"],
        ["eval", "--candidates", "s.jsonl", "--references", "r.jsonl", "--set", "seed=3"],
        ["make-fixtures", "--out-dir", "x", "--set", "seed=3"],
        ["make-fixtures", "--out-dir", "x", "--config", "cfg.json"],
    ],
)
def test_commands_without_settings_refuse_config_and_set(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,named",
    [
        (["--config", "cfg.json"], "--config"),
        (["--set", "beam_size=5"], "--set"),
        (["--config", "cfg.json", "--set", "alpha=1"], "--config, --set"),
    ],
)
def test_from_manifest_refuses_settings_naming_them(tmp_path, capsys, extra, named):
    out_dir = str(tmp_path / "rerun")
    code, _, err = run_cli(capsys, "pipeline", "--from-manifest", str(tmp_path / "manifest.json"), "--out-dir", out_dir, *extra)
    assert code == EXIT_INPUT
    assert "--from-manifest" in err and f"drop {named}" in err
    assert not os.path.exists(out_dir)
