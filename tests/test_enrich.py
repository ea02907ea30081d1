import os

import numpy as np
import pytest

from helpers import enrich_path, read_jsonl, reference_select, without_bridge
from storybridge import enrich
from storybridge import lm as lm_module
from storybridge.enrich import EnrichmentCandidate, TermPath, build_candidates, select_best, select_best_of_each
from storybridge.kg import Bridge, KGTuple, RelationIndex
from storybridge.lm import BOS, EOS, SEP, UNK, GRULanguageModel, NGramLM, linearize_groups, perplexities, perplexity
from storybridge.pipeline import load_kg_index, stage_enrich


def base_path(groups=None, sid="s"):
    groups = groups or [["a1"], ["b1", "b2"], ["c1"], ["d1"], ["e1"]]
    return TermPath.from_groups(groups, story_id=sid)


def test_empty_graph_keeps_only_base():
    cands = build_candidates(base_path(), RelationIndex())
    assert cands == [base_path()]


def test_figure_bridge_inserts_expected_group():
    groups = [["opening_NOUN"], ["graduates_NOUN", "Posture_Frame"], ["diplomas_NOUN", "students_NOUN"], ["crowd_NOUN"], ["party_NOUN"]]
    index = RelationIndex()
    index.add(KGTuple("graduates_NOUN", "Arriving_Frame", "diplomas_NOUN", "scene"))
    cands = build_candidates(base_path(groups), index)
    assert len(cands) == 2
    bridged = cands[1]
    assert len(bridged.groups) == 6
    assert bridged.groups[2] == ("graduates_NOUN", "Arriving_Frame", "diplomas_NOUN")
    assert bridged.origins[2] == ("bridge", 1)
    assert bridged.bridge == Bridge("graduates_NOUN", ("Arriving_Frame",), None, "diplomas_NOUN")


@pytest.mark.parametrize("group_count", [1, 2, 4, 5, 6])  # a path of any length, one group per image
def test_candidate_count_matches_per_pair_enumeration(group_count):
    rng = np.random.default_rng(4)
    index = RelationIndex()
    terms = [f"t{i}" for i in range(10)]
    for _ in range(60):
        index.add(KGTuple(terms[rng.integers(10)], f"r{rng.integers(3)}", terms[rng.integers(10)], "g"))
    groups = [list(rng.choice(terms, size=2, replace=False)) for _ in range(group_count)]
    base = base_path(groups)
    cands = build_candidates(base, index, cap=None)
    expected = 1 + sum(
        len(index.enumerate_bridges(set(groups[k]), set(groups[k + 1]), True)) for k in range(group_count - 1)
    )
    assert len(cands) == expected
    assert {cand.bridge_slot for cand in cands[1:]} <= set(range(group_count - 1))
    # base path must be recoverable from every candidate
    for cand in cands[1:]:
        assert without_bridge(cand) == base
        assert sum(1 for o in cand.origins if o[0] == "bridge") == 1


def test_cap_truncates_but_keeps_base():
    index = RelationIndex()
    for i in range(10):
        index.add(KGTuple("a1", f"r{i}", "b1", "g"))
    cands = build_candidates(base_path(), index, cap=3)
    assert len(cands) == 3
    assert cands[0].bridge is None


def test_build_candidates_validates_base():
    index = RelationIndex()
    index.add(KGTuple("a", "r", "b", "g"))
    bridged = build_candidates(TermPath.from_groups([["a"], ["b"]]), index)[1]
    with pytest.raises(ValueError, match="already carries a bridge"):
        build_candidates(bridged, index)
    with pytest.raises(ValueError, match="term path has no groups"):
        TermPath.from_groups([])
    # an empty group is allowed and gets no bridge on either side
    index = RelationIndex()
    for head, tail in [("a", "c"), ("c", "a"), ("c", "d")]:
        index.add(KGTuple(head, "r", tail, "g"))
    base = TermPath.from_groups([["a"], [], ["c"], ["d"], ["e"]])
    assert build_candidates(base, index) == [base, base.with_bridge(2, Bridge("c", ("r",), None, "d"))]


def test_two_hop_flag_controls_bridge_kinds():
    index = RelationIndex()
    index.add(KGTuple("b1", "r1", "mid", "g"))
    index.add(KGTuple("mid", "r2", "c1", "g"))
    with_two = build_candidates(base_path(), index, allow_two_hop=True)
    without = build_candidates(base_path(), index, allow_two_hop=False)
    assert len(with_two) == 2 and len(without) == 1
    assert with_two[1].groups[2] == ("b1", "r1", "mid", "r2", "c1")


def test_single_candidate_selects_itself():
    base = base_path()
    lm = NGramLM.train([base.linearized()], order=2, smoothing_k=1.0)
    choice = select_best([base], lm)
    assert choice.path == base
    assert choice.perplexity >= 1.0


def test_memorized_candidate_wins():
    index = RelationIndex()
    index.add(KGTuple("b1", "Bridge_Frame", "c1", "g"))
    base = base_path()
    bridged = base.with_bridge(1, Bridge("b1", ("Bridge_Frame",), None, "c1"))
    lm = NGramLM.train([bridged.linearized()] * 5, order=2, smoothing_k=0.01)
    choice = enrich_path(base, index, lm)
    assert choice.path == bridged
    assert choice.path.bridge_slot == 1


def test_selection_matches_exhaustive_rescoring():
    rng = np.random.default_rng(11)
    terms = [f"w{i}" for i in range(8)]
    for trial in range(20):
        index = RelationIndex()
        for _ in range(int(rng.integers(5, 40))):
            index.add(KGTuple(terms[rng.integers(8)], f"r{rng.integers(4)}", terms[rng.integers(8)], "g"))
        groups = [list(rng.choice(terms, size=int(rng.integers(1, 3)), replace=False)) for _ in range(5)]
        corpus = [linearize_groups([list(rng.choice(terms, size=2)) for _ in range(5)]) for _ in range(6)]
        lm = NGramLM.train(corpus, order=2, smoothing_k=0.5)
        base = base_path(groups, sid=f"t{trial}")
        cands = build_candidates(base, index, cap=None)
        choice = select_best(cands, lm)
        scores = [perplexity(lm, c.linearized()) for c in cands]
        best = int(np.argmin(scores))  # first minimum, like construction order
        assert choice.path == cands[best]
        assert choice.perplexity == pytest.approx(scores[best])


def test_selection_is_deterministic():
    index = RelationIndex()
    index.add(KGTuple("b1", "r", "c1", "g"))
    index.add(KGTuple("a1", "r", "b1", "g"))
    lm = NGramLM.train([base_path().linearized()], order=2, smoothing_k=1.0)
    first = enrich_path(base_path(), index, lm)
    second = enrich_path(base_path(), index, lm)
    assert first == second


def test_term_path_validation():
    base = base_path()
    with pytest.raises(ValueError, match="head"):
        base.with_bridge(1, Bridge("missing", ("r",), None, "c1"))
    with pytest.raises(ValueError, match="tail"):
        base.with_bridge(1, Bridge("b1", ("r",), None, "missing"))
    bridged = base.with_bridge(1, Bridge("b1", ("r",), None, "c1"))
    with pytest.raises(ValueError, match="already carries"):
        bridged.with_bridge(2, Bridge("c1", ("r",), None, "d1"))


def test_term_path_record_roundtrip():
    bridged = base_path().with_bridge(1, Bridge("b1", ("r1", "r2"), "m", "c1"))
    rec = bridged.to_record()
    assert TermPath.from_record(rec) == bridged
    assert rec["groups"][2] == ["b1", "r1", "m", "r2", "c1"]


def test_candidate_perplexity_floor_enforced():
    with pytest.raises(ValueError, match="never below 1"):
        EnrichmentCandidate(base_path(), 0.5)


def published_shaped_candidates(rng, story_count=1, cap=60, sizes=(8,)):
    """A GRU LM of hidden 64 over about 2000 terms, like the published term LM, and per story a capped candidate list."""
    terms = [f"w{i}" for i in range(1990)]
    relations = [f"r{i}" for i in range(6)]
    model = GRULanguageModel.build(terms + relations + [BOS, EOS, SEP, UNK], hidden_size=64, seed=5)
    lists = []
    for k in range(story_count):
        groups = [list(rng.choice(terms[:40], size=int(rng.choice(sizes)), replace=False)) for _ in range(5)]
        index = RelationIndex()
        for _ in range(150):
            a, b = rng.integers(5, size=2)
            index.add(KGTuple(str(rng.choice(groups[a])), str(rng.choice(relations)), str(rng.choice(groups[b])), "g"))
        index.add(KGTuple(groups[0][0], "r0", "outside_vocab", "g"))
        index.add(KGTuple("outside_vocab", "r1", groups[1][0], "g"))
        lists.append(build_candidates(base_path(groups, sid=f"s{k}"), index, cap=cap))
    return model, lists


def test_select_best_matches_per_candidate_rescoring_on_published_shaped_lm(monkeypatch):
    model, [cands] = published_shaped_candidates(np.random.default_rng(21))
    monkeypatch.setattr(lm_module, "SCORE_BLOCK_BYTES", 16 * len(model.vocab) * 8)  # blocks smaller than the list
    assert len(cands) == 60
    choice = select_best(cands, model)
    best, best_ppl = reference_select(cands, model)
    assert choice.path == cands[best]
    assert choice.perplexity == pytest.approx(best_ppl, rel=1e-12)


def test_select_best_of_one_list_is_its_perplexities_bit_for_bit():
    # the per-path call of a single story scores exactly the rows of one perplexities call
    model, [cands] = published_shaped_candidates(np.random.default_rng(22), cap=100, sizes=(1, 4, 8))
    scores = perplexities(model, [path.linearized() for path in cands])
    choice = select_best(cands, model)
    best = int(np.argmin(scores))
    assert choice.path is cands[best]
    assert np.array([choice.perplexity]).view(np.uint64) == scores[best : best + 1].view(np.uint64)


@pytest.mark.parametrize("block_rows", [7, 101])
def test_select_best_of_each_equals_select_best_list_by_list(block_rows, monkeypatch):
    # stated before measuring: the same candidate per list, its perplexity within 1e-12 relative
    model, lists = published_shaped_candidates(np.random.default_rng(23), story_count=5, cap=30, sizes=(1, 3, 8))
    lists.insert(2, lists[0][:4])  # a story whose candidates another story also scores
    monkeypatch.setattr(lm_module, "SCORE_BLOCK_BYTES", block_rows * len(model.vocab) * 8)
    got = select_best_of_each(lists, model)
    want = [select_best(cands, model) for cands in lists]
    assert [choice.path for choice in got] == [choice.path for choice in want]
    for a, b in zip(got, want):
        assert a.perplexity == pytest.approx(b.perplexity, rel=1e-12, abs=0)
    assert select_best_of_each([], model) == []
    with pytest.raises(ValueError, match="no candidates"):
        select_best_of_each([lists[0], []], model)


def test_bridges_with_equal_ids_tie_bitwise_and_the_earlier_wins():
    vocab = ["a1", "b1", "b2", "c1", "d1", "e1", "r1", "r2", BOS, EOS, SEP, UNK]
    model = GRULanguageModel.build(vocab, hidden_size=12, seed=2)
    base = base_path()
    # both middles are out of vocabulary, so both bridges linearize to the same ids
    first = base.with_bridge(1, Bridge("b1", ("r1", "r2"), "middle_one", "c1"))
    second = base.with_bridge(1, Bridge("b1", ("r1", "r2"), "middle_two", "c1"))
    others = [base.with_bridge(k, Bridge(h, ("r1",), None, t)) for k, h, t in ((0, "a1", "b2"), (2, "c1", "d1"), (3, "d1", "e1"))]
    cands = [base] + others + [first, second]
    scores = perplexities(model, [c.linearized() for c in cands])
    assert scores[-2].tobytes() == scores[-1].tobytes()
    assert select_best([first, second], model).path.bridge.middle == "middle_one"
    assert select_best([second, first], model).path.bridge.middle == "middle_two"
    assert select_best(cands, model).path == cands[int(np.argmin(scores))]


def test_fixture_pipeline_selection_matches_per_candidate_rescoring(pipeline_run):
    config = pipeline_run["config"]
    out_dir = pipeline_run["out_dir"]
    model = lm_module.load_lm(config.lm_model)
    index = load_kg_index(config)
    selected = read_jsonl(os.path.join(out_dir, "paths.jsonl"))
    bases = [TermPath.from_record(rec) for rec in read_jsonl(os.path.join(out_dir, "terms.jsonl"))]
    assert len(selected) == len(bases) > 0
    bridged = 0
    for base, rec in zip(bases, selected):
        cands = build_candidates(base, index, cap=config.candidate_cap)
        best, best_ppl = reference_select(cands, model)
        chosen = TermPath.from_record(rec)
        assert (chosen.groups, chosen.origins, chosen.bridge) == (cands[best].groups, cands[best].origins, cands[best].bridge)
        assert rec["perplexity"] == pytest.approx(best_ppl, rel=1e-12)
        bridged += chosen.bridge is not None
    assert bridged > 0


def test_stage_enrich_scores_the_file_in_one_call_and_selects_what_select_best_selects(pipeline_run, tmp_path, monkeypatch):
    # stated before measuring: each story's path is equal and its perplexity within 1e-12 relative
    config, out_dir = pipeline_run["config"], pipeline_run["out_dir"]
    model = lm_module.load_lm(config.lm_model)
    index = load_kg_index(config)
    calls = []
    monkeypatch.setattr(enrich, "perplexities", lambda lm, seqs: calls.append(len(seqs)) or perplexities(lm, seqs))
    selected = stage_enrich(config, os.path.join(out_dir, "terms.jsonl"), str(tmp_path / "paths.jsonl"))
    bases = [TermPath.from_record(rec) for rec in read_jsonl(os.path.join(out_dir, "terms.jsonl"))]
    candidate_lists = [build_candidates(base, index, cap=config.candidate_cap) for base in bases]
    assert calls == [sum(len(cands) for cands in candidate_lists)] and len(bases) == 20
    for cands, rec in zip(candidate_lists, selected):
        choice = select_best(cands, model)
        assert TermPath.from_record(rec) == choice.path
        assert (rec["candidate_count"], rec["bridge_slot"]) == (len(cands), choice.path.bridge_slot)
        assert rec["perplexity"] == pytest.approx(choice.perplexity, rel=1e-12, abs=0)
    assert selected == read_jsonl(os.path.join(out_dir, "paths.jsonl"))
