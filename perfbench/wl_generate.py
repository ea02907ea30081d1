"""published-generate: story decoding from fixed term paths at the published size.

Set-up loads the cached 37M-parameter generator (hidden 512, 2 heads, 4+4
layers, ff x4, V = 5000, seeded weights) with the program's loader. A
2-group warm-up path is decoded first and checked against a reference beam
search; then rounds of three paths ([5, 6 bridged, 5] groups) are decoded
with ``decode_story`` (beam 3, alpha 20, gamma 5) for ``--seconds``.
"""

from __future__ import annotations

import time

import numpy as np

import oracles
import worlds
from bench import Run, median, peak_rss_mb, timed_rounds
from tracer import recording


def check_story(model, path, story, penalties, reference: bool) -> list[str]:
    from storybridge.generate import BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY
    from storybridge.lm import UNK

    problems = []
    groups = [list(g) for g in path.groups]
    cap = model.config.max_sentence_tokens
    if len(story.sentences) != len(groups):
        problems.append(f"{path.story_id}: {len(story.sentences)} sentences for {len(groups)} groups")
    flat = [tok for sent in story.sentences for tok in sent + [SENTENCE_BOUNDARY]]
    if story.tokens != flat:
        problems.append(f"{path.story_id}: tokens do not match the sentences")
    banned = {BOS_STORY, EOS_STORY, UNK} & set(story.tokens)
    if banned:
        problems.append(f"{path.story_id}: emitted {sorted(banned)}")
    if any(len(s) > cap for s in story.sentences):
        problems.append(f"{path.story_id}: a sentence exceeds the cap of {cap}")
    if story.truncated != any(len(s) == cap for s in story.sentences):
        problems.append(f"{path.story_id}: truncated={story.truncated} but sentence lengths {[len(s) for s in story.sentences]}")

    # teacher-forced rescoring: one decoder pass with remaining lengths budget - position
    ids = [model.token_to_id[t] for t in story.tokens]
    bos, sb = model.token_to_id[BOS_STORY], model.token_to_id[SENTENCE_BOUNDARY]
    budget = len(groups) * (model.sentence_budget + 1) + 1
    memory = model.encode_path(groups)
    inputs = [bos] + ids[:-1]
    remaining = np.maximum(budget - np.arange(len(inputs)), 0)
    logp = oracles.log_softmax(model.decoder_logits(memory, inputs, remaining).data)
    rescored = oracles.penalized_score(logp, ids, sb, penalties.alpha, penalties.gamma)
    if abs(rescored - story.score) > 1e-9:
        problems.append(f"{path.story_id}: score {story.score!r} vs teacher-forced rescoring {rescored!r}")

    if reference:
        def step(prefix):
            seq = [bos] + list(prefix)
            rem = np.maximum(budget - np.arange(len(seq)), 0)
            return oracles.log_softmax(model.decoder_logits(memory, seq, rem).data)[-1]

        excluded = [model.token_to_id[t] for t in (BOS_STORY, EOS_STORY, UNK)]
        ref_ids, ref_score, ref_trunc = oracles.reference_beam(
            step, len(model.vocab), sb, len(groups), penalties.alpha, penalties.gamma,
            penalties.beam_size, cap, excluded)
        if ref_ids != ids or ref_trunc != story.truncated:
            problems.append(f"{path.story_id}: reference beam search gives {[model.vocab[i] for i in ref_ids]}")
        elif abs(ref_score - story.score) > 1e-9:
            problems.append(f"{path.story_id}: reference beam score {ref_score!r} vs {story.score!r}")
    return problems


def execute(run: Run, tracer, import_s: float, cache: dict) -> int:
    from storybridge import generate

    with recording(tracer, "once"):
        t0 = time.perf_counter()
        model = generate.GeneratorModel.load(cache["generator"])
        warm, round_paths = worlds.story_paths(run.seed)
        setup = time.perf_counter() - t0
    run.metric("setup_s", import_s + setup, "s")
    penalties = generate.BeamPenaltyConfig(alpha=worlds.ALPHA, gamma=worlds.GAMMA, beam_size=worlds.BEAM)

    # warm-up: decoded and checked against the reference beam search, not timed
    story, _ = run.operation("decode_story (warm-up)", generate.decode_story, warm, model, penalties)
    if story is not None:
        run.verify("decode_story (warm-up)", check_story(model, warm, story, penalties, reference=True))

    times, lengths = [], []

    def one_round():
        done = []
        for path in round_paths:
            if tracer is not None:
                tracer.begin_op()
            with recording(tracer, "round"):
                story, seconds = run.operation("decode_story", generate.decode_story, path, model, penalties)
            if story is not None:
                times.append(seconds)
                done.append((path, story))
        for path, story in done:
            lengths.append(len(story.tokens))
            run.verify("decode_story", check_story(model, path, story, penalties, reference=False))

    rounds = timed_rounds(run.seconds, one_round)
    run.metric("op_p50_s", median(times), "s")
    run.metric("outputs_per_s", 1.0 / median(times), "1/s")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    run.note(f"rounds={rounds} stories={len(times)} tokens per story={sorted(set(lengths))} "
             f"decode times={[round(t, 3) for t in times]}")
    return rounds
