"""published-distill-enrich: features to a selected term path at the published size.

Set-up writes the run's two-source knowledge graph, loads it with the
program's ``load_tuples``, loads the cached published-size distiller
(hidden 512, 2 heads, 4 layers, 2000 terms) and GRU term LM (hidden 64),
and makes the image sequences. Each operation runs ``predict_terms`` (beam
3), ``build_candidates`` (cap 100) and ``select_best`` on one sequence;
rounds of five sequences run for ``--seconds``.
"""

from __future__ import annotations

import os
import time

import oracles
import worlds
from bench import Run, fresh_dir, median, peak_rss_mb, timed_rounds
from tracer import recording

ROUND = 5
SOURCES = (("scene", True), ("textrel", False))


def linearize(groups) -> list[str]:
    tokens = ["<s>"]
    for i, group in enumerate(groups):
        tokens += (["<sep>"] if i else []) + list(group)
    return tokens + ["</s>"]


def check_path(seq_id, terms, candidates, choice, vocab, tuples, numpy_lm) -> tuple[list[str], str]:
    problems = []
    for i, group in enumerate(terms):
        if len(set(group)) != len(group) or not set(group) <= vocab or len(group) > worlds.MAX_TERMS_PER_IMAGE:
            problems.append(f"{seq_id} image {i}: terms {group} are not distinct vocabulary terms within the limit")
    if len(terms) != 5:
        problems.append(f"{seq_id}: {len(terms)} term groups for 5 images")

    expected = []
    for k in range(len(terms) - 1):
        expected += [(k, b) for b in oracles.brute_bridges(tuples, {"scene"}, terms[k], terms[k + 1])]
    if len(candidates) != min(worlds.CANDIDATE_CAP, 1 + len(expected)):
        problems.append(f"{seq_id}: {len(candidates)} candidates, expected min(cap, 1 + {len(expected)})")
    if not candidates or candidates[0].bridge is not None or [list(g) for g in candidates[0].groups] != terms:
        problems.append(f"{seq_id}: the first candidate is not the unenriched path")
    for i, (path, (k, b)) in enumerate(zip(candidates[1:], expected), start=1):
        got = path.bridge
        if got is None or path.bridge_slot != k or (got.head, tuple(got.relations), got.middle, got.tail) != b:
            problems.append(f"{seq_id}: candidate {i} is {got} at slot {path.bridge_slot}, brute force gives {b} at {k}")
            break

    ppl = [numpy_lm.perplexity(linearize(p.groups)) for p in candidates]
    chosen = next((i for i, p in enumerate(candidates) if p is choice.path), None)
    best = min(ppl) if ppl else None
    tol = 1e-9 * max(1.0, abs(choice.perplexity))
    if chosen is None:
        problems.append(f"{seq_id}: the selected path is not among the candidates")
    elif ppl[chosen] > best + tol:
        problems.append(f"{seq_id}: selected candidate {chosen} has perplexity {ppl[chosen]!r}, the lowest is {best!r}")
    elif any(p == ppl[chosen] for p in ppl[:chosen]):
        problems.append(f"{seq_id}: an earlier candidate ties or beats the selected candidate {chosen}")
    elif abs(ppl[chosen] - choice.perplexity) > tol:
        problems.append(f"{seq_id}: recorded perplexity {choice.perplexity!r} vs numpy rescoring {ppl[chosen]!r}")
    slots = sorted({p.bridge_slot for p in candidates[1:]})
    summary = f"{seq_id}: {1 + len(expected)} candidates before the cap, {len(candidates)} scored, slot pairs {slots}"
    return problems, summary


def execute(run: Run, tracer, import_s: float, cache: dict) -> int:
    from storybridge import distill, enrich, kg, lm

    root = fresh_dir("work", f"published-distill-enrich-{os.getpid()}")
    with recording(tracer, "once"):
        t0 = time.perf_counter()
        rows = worlds.kg_tuples(run.seed)
        index = kg.RelationIndex()
        for source, two_hop in SOURCES:
            path = os.path.join(root, f"kg_{source}.tsv")
            worlds.write_tsv(path, rows[source])
            kg.load_tuples(path, source, two_hop_ok=two_hop, into=index)
        model = distill.DistillerModel.load(cache["distiller"])
        term_lm = lm.load_lm(cache["lm"])
        sequences = worlds.image_sequences(run.seed, ROUND + 1)
        setup = time.perf_counter() - t0
    run.metric("setup_s", import_s + setup, "s")

    def one_path(seq):
        terms = model.predict_terms(seq, beam_size=worlds.BEAM)
        base = enrich.TermPath.from_groups(terms, story_id=seq.story_id)
        candidates = enrich.build_candidates(base, index, cap=worlds.CANDIDATE_CAP, allow_two_hop=True)
        return terms, candidates, enrich.select_best(candidates, term_lm)

    one_path(sequences[-1])  # warm-up, not timed

    tuples = [(h, r, t, source) for source, _ in SOURCES for h, r, t in rows[source]]
    vocab = set(model.vocab) - {distill.END_OF_SET}
    numpy_lm = oracles.NumpyGRULM.from_file(cache["lm"])
    times, summaries = [], []

    def one_round():
        done = []
        for seq in sequences[:ROUND]:
            if tracer is not None:
                tracer.begin_op()
            with recording(tracer, "round"):
                result, seconds = run.operation("features to path", one_path, seq)
            if result is not None:
                times.append(seconds)
                done.append((seq.story_id, result))
        for seq_id, (terms, candidates, choice) in done:
            problems, summary = check_path(seq_id, terms, candidates, choice, vocab, tuples, numpy_lm)
            run.verify("features to path", problems)
            if len(summaries) < ROUND:
                summaries.append(summary)

    rounds = timed_rounds(run.seconds, one_round)
    run.metric("op_p50_s", median(times), "s")
    run.metric("outputs_per_s", 1.0 / median(times), "1/s")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    for line in summaries:
        run.note(line)
    run.note(f"rounds={rounds} paths={len(times)} path times={[round(t, 3) for t in times]}")
    return rounds
