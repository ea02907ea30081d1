"""desk-train: the fixture world, the three desk trainings, repeated pipeline runs.

Set-up writes the fixture world and builds the training corpora, five
times (the median counts). The three models are then trained with the
calibrated desk settings (hidden 32, 2 heads; distiller 2 layers, GRU LM,
generator 1+1 layers; lr 3e-3, warmup 50) for EPOCHS epochs each, with each
epoch timestamped through the command's ``log`` hook. Then ``run_pipeline``
runs over the 20 fixture stories in whole rounds for ``--seconds``, and
``rerun_from_manifest`` replays the first of them.
"""

from __future__ import annotations

import json
import os
import time

import oracles
from bench import Run, fresh_dir, median, peak_rss_mb, timed_rounds
from tracer import recording

EPOCHS = 20
SETUP_REPEATS = 5
MODEL_SEED = 0  # weights start the same in every run; --seed makes the fixture world
OUTPUTS = ("terms.jsonl", "paths.jsonl", "stories.jsonl")


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_kg(world) -> list[tuple[str, str, str, str]]:
    rows = []
    for key, source in (("kg_scene", "scene"), ("kg_textrel", "textrel")):
        with open(world[key], "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    h, r, t = (p.strip() for p in line.rstrip("\n").split("\t"))
                    rows.append((h, r, t, source))
    return rows


def check_pipeline(out_dir, scores, references, kg_rows, expected_bytes) -> list[str]:
    """Structure, bridge provenance, metric and determinism checks of one run."""
    problems = []
    paths = {p["story_id"]: p for p in read_jsonl(os.path.join(out_dir, "paths.jsonl"))}
    stories = read_jsonl(os.path.join(out_dir, "stories.jsonl"))
    for story in stories:
        groups = paths[story["story_id"]]["groups"]
        if len(story["sentences"]) != len(groups):
            problems.append(f"{story['story_id']}: {len(story['sentences'])} sentences for {len(groups)} groups")
    if not any(len(s["sentences"]) == 6 for s in stories):
        problems.append("no six-sentence story")
    one_hop = {(h, r, t) for h, r, t, _s in kg_rows}
    two_hop = {(h, r, t) for h, r, t, s in kg_rows if s == "scene"}
    for sid, path in paths.items():
        bridge = path.get("bridge")
        if bridge is None:
            continue
        h, rels, m, t = bridge["head"], bridge["relations"], bridge["middle"], bridge["tail"]
        if m is None:
            legs_ok = len(rels) == 1 and (h, rels[0], t) in one_hop
            group = [h, rels[0], t]
        else:
            legs_ok = len(rels) == 2 and (h, rels[0], m) in two_hop and (m, rels[1], t) in two_hop and m not in (h, t)
            group = [h, rels[0], m, rels[1], t]
        pos = [i for i, o in enumerate(path["origins"]) if o[0] == "bridge"]
        if not legs_ok:
            problems.append(f"{sid}: bridge {bridge} is not a path of KG tuples")
        elif len(pos) != 1 or path["groups"][pos[0]] != group:
            problems.append(f"{sid}: bridge group {pos} does not realise {bridge}")
        elif h not in path["groups"][pos[0] - 1] or t not in path["groups"][pos[0] + 1]:
            problems.append(f"{sid}: bridge endpoints are not in the neighbouring groups")
    by_id = {s["story_id"]: [tok for sent in s["sentences"] for tok in sent] for s in stories}
    cands = list(by_id.values())
    refs = [references[sid] for sid in by_id]
    own = {f"bleu{n}": oracles.corpus_bleu(cands, refs, n) for n in range(1, 5)}
    own.update({f"distinct{n}": oracles.distinct(cands, n) for n in (1, 2)})
    for name, value in own.items():
        if abs(scores[name] - value) > 1e-12:
            problems.append(f"{name}: program {scores[name]!r} vs recount {value!r}")
    if expected_bytes is not None:
        for name in OUTPUTS:
            if read_bytes(os.path.join(out_dir, name)) != expected_bytes[name]:
                problems.append(f"{name} differs from the first run's bytes")
    return problems


def execute(run: Run, tracer, import_s: float) -> int:
    from storybridge import corpus, distill, fixtures, pipeline
    from storybridge.config import RunConfig

    seed = run.seed
    root = fresh_dir("work", f"desk-train-{os.getpid()}")

    setup_times = []
    for i in range(SETUP_REPEATS):
        with recording(tracer, "once" if i == SETUP_REPEATS - 1 else None):
            t0 = time.perf_counter()
            world = fixtures.write_fixtures(os.path.join(root, "fixtures"), seed=seed)
            vision = corpus.load_corpus(world["corpus"])
            text = corpus.load_corpus(world["text_corpus"])
            features = distill.load_feature_file(world["features"])
            corpus.build_training_pairs(vision, mode="distiller", features=features)
            corpus.build_training_pairs(vision + text, mode="lm")
            corpus.build_training_pairs(vision + text, mode="generator")
            setup_times.append(time.perf_counter() - t0)
    run.metric("setup_s", import_s + median(setup_times), "s")

    common = dict(
        hidden_size=32, heads=2, ff_multiple=2, warmup_steps=50, learning_rate=3e-3, seed=MODEL_SEED, epochs=EPOCHS,
        corpus_path=world["corpus"], text_corpus_path=world["text_corpus"], features_path=world["features"],
        out_dir=os.path.join(root, "models"),
    )
    jobs = [
        ("distiller", pipeline.train_distiller_command, dict(layers=2)),
        ("lm", pipeline.train_lm_command, dict(lm_kind="gru", lm_hidden_size=32)),
        ("generator", pipeline.train_generator_command, dict(layers=1, decoder_layers=1)),
    ]
    checkpoints, epoch_medians = {}, {}
    for name, command, extra in jobs:
        stamps = []
        with recording(tracer, "once"):
            start = time.perf_counter()
            path, _ = run.operation(f"train {name}", command, RunConfig(**common, **extra),
                                    log=lambda _msg: stamps.append(time.perf_counter()))
        if path is None:
            raise RuntimeError(f"training the {name} failed; nothing after it can run")
        problems = [] if len(stamps) == EPOCHS else [f"{len(stamps)} epoch log lines for {EPOCHS} epochs"]
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not all(all(v == v and abs(v) != float("inf") for v in p["data"]) for p in payload["params"].values()):
            problems.append("checkpoint holds non-finite weights")
        run.verify(f"train {name}", problems)
        # the first epoch also loads and prepares the data; it is left out
        epochs = [b - a for a, b in zip(stamps, stamps[1:])]
        epoch_medians[name] = median(epochs)
        checkpoints[name] = path
        run.note(f"train {name}: {time.perf_counter() - start:.3f}s, epoch times={[round(e, 4) for e in epochs]}")
    run.metric("op_p50_s", sum(epoch_medians.values()), "s")

    config = RunConfig(
        hidden_size=32, layers=2, ff_multiple=2, features_path=world["features"],
        kg=[{"path": world["kg_scene"], "source": "scene", "two_hop": True},
            {"path": world["kg_textrel"], "source": "textrel", "two_hop": False}],
        distiller_model=checkpoints["distiller"], lm_model=checkpoints["lm"],
        generator_model=checkpoints["generator"], out_dir=os.path.join(root, "warm"),
    )
    pipeline.run_pipeline(config)  # warm-up, not timed

    kg_rows = read_kg(world)
    references = {}
    for rec in read_jsonl(world["corpus"]):
        references[rec["story_id"]] = [tok for sent in rec["sentences"] for tok in sent["tokens"]]
    pipeline_times = []
    first = {}

    def one_round():
        out_dir = os.path.join(root, f"run{len(pipeline_times)}")
        if tracer is not None:
            tracer.begin_op()
        with recording(tracer, "round"):
            manifest, seconds = run.operation("run_pipeline", pipeline.run_pipeline, config, out_dir)
            if manifest is None:
                return
            pipeline_times.append(seconds)
            scores = pipeline.evaluate_stories(os.path.join(out_dir, "stories.jsonl"), world["corpus"])
        expected = first.get("bytes")
        run.verify("run_pipeline", check_pipeline(out_dir, scores, references, kg_rows, expected))
        if expected is None:
            first["dir"] = out_dir
            first["bytes"] = {name: read_bytes(os.path.join(out_dir, name)) for name in OUTPUTS}
            stories = read_jsonl(os.path.join(out_dir, "stories.jsonl"))
            run.note(f"pipeline: {len(stories)} stories, {sum(len(s['sentences']) == 6 for s in stories)} with six sentences")

    rounds = timed_rounds(run.seconds, one_round)
    run.metric("outputs_per_s", len(references) / median(pipeline_times), "1/s")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")

    rerun_dir = os.path.join(root, "rerun")
    manifest, _ = run.operation("rerun_from_manifest", pipeline.rerun_from_manifest,
                                os.path.join(first.get("dir", root), "manifest.json"), rerun_dir)
    if manifest is not None and "dir" in first:
        run.verify("rerun_from_manifest", [
            f"{name} differs after rerun_from_manifest" for name in OUTPUTS
            if read_bytes(os.path.join(rerun_dir, name)) != first["bytes"][name]
        ])
    run.note(f"rounds={rounds} pipeline times={[round(t, 4) for t in pipeline_times]}")
    if tracer is not None:
        for name, value in epoch_medians.items():
            tracer.extra[f"train.{name}_epoch_s"] = (value, "s")
    return rounds
