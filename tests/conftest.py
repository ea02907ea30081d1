"""Session fixtures: the synthetic world, trained checkpoints, one pipeline run.

Training happens once per session and is shared by the integration, CLI,
and acceptance tests. All settings here are the calibrated desk-scale ones;
they are deliberately small so the whole suite stays fast.
"""

import json
import time

import pytest

from storybridge.config import RunConfig
from storybridge.corpus import build_training_pairs, load_corpus
from storybridge.distill import DistillerConfig, load_feature_file, train_distiller
from storybridge.fixtures import write_fixtures
from storybridge.generate import GeneratorConfig, train_generator
from storybridge.ioutil import write_json
from storybridge.lm import LMConfig, train_lm
from storybridge.optim import TrainConfig
from storybridge.pipeline import run_pipeline


@pytest.fixture(scope="session")
def fixture_world(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("world"))
    paths = write_fixtures(out_dir, seed=0)
    paths["dir"] = out_dir
    return paths


@pytest.fixture(scope="session")
def trained_world(fixture_world, tmp_path_factory):
    """Fixture corpus plus trained distiller, term LM, and generator."""
    model_dir = tmp_path_factory.mktemp("models")
    vision = load_corpus(fixture_world["corpus"])
    text = load_corpus(fixture_world["text_corpus"])
    features = load_feature_file(fixture_world["features"])

    t0 = time.time()
    distiller, _ = train_distiller(
        build_training_pairs(vision, mode="distiller", features=features),
        DistillerConfig(hidden_size=32, heads=2, layers=2, ff_multiple=2, num_slots=5, seed=0),
        TrainConfig(epochs=80, learning_rate=3e-3, warmup_steps=50),
    )
    distiller_seconds = time.time() - t0
    distiller_path = str(model_dir / "distiller.json")
    distiller.save(distiller_path)

    lm, _ = train_lm(
        build_training_pairs(vision + text, mode="lm"),
        LMConfig(kind="gru", hidden_size=32, seed=0),
        TrainConfig(epochs=60, learning_rate=3e-3, warmup_steps=50),
    )
    lm_path = str(model_dir / "term_lm.json")
    lm.save(lm_path)

    t0 = time.time()
    generator, _ = train_generator(
        build_training_pairs(vision + text, mode="generator"),
        GeneratorConfig(hidden_size=32, heads=2, encoder_layers=1, decoder_layers=1, ff_multiple=2, seed=0),
        TrainConfig(epochs=100, learning_rate=3e-3, warmup_steps=50),
    )
    generator_seconds = time.time() - t0
    generator_path = str(model_dir / "generator.json")
    generator.save(generator_path)

    return {
        **fixture_world,
        "distiller_model": distiller_path,
        "lm_model": lm_path,
        "generator_model": generator_path,
        "distiller_seconds": distiller_seconds,
        "generator_seconds": generator_seconds,
    }


def pipeline_config(world, out_dir: str) -> RunConfig:
    return RunConfig(
        features_path=world["features"],
        kg=[
            {"path": world["kg_scene"], "source": "scene", "two_hop": True},
            {"path": world["kg_textrel"], "source": "textrel", "two_hop": False},
        ],
        distiller_model=world["distiller_model"],
        lm_model=world["lm_model"],
        generator_model=world["generator_model"],
        hidden_size=32,
        layers=2,
        ff_multiple=2,
        out_dir=out_dir,
    )


@pytest.fixture(scope="session")
def pipeline_run(trained_world, tmp_path_factory):
    """One full pipeline execution; returns paths, stories, and wall time."""
    out_dir = str(tmp_path_factory.mktemp("run"))
    config = pipeline_config(trained_world, out_dir)
    config_path = str(tmp_path_factory.mktemp("cfg") / "pipeline.json")
    write_json(config_path, config.to_dict())
    t0 = time.time()
    manifest = run_pipeline(config)
    seconds = time.time() - t0
    with open(f"{out_dir}/stories.jsonl", "r", encoding="utf-8") as fh:
        stories = [json.loads(line) for line in fh]
    return {
        "world": trained_world,
        "config": config,
        "config_path": config_path,
        "out_dir": out_dir,
        "manifest": manifest,
        "stories": stories,
        "seconds": seconds,
    }
