"""Quick mode: the oracles themselves, on cases whose answers are known by hand.

    python3 perfbench/run.py --self-check

Runs in about a second and exits 1 if any oracle disagrees with its hand
values.
"""

from __future__ import annotations

import math

import numpy as np

import oracles


def check_bleu() -> list[str]:
    # the toy corpus of the acceptance gate: clipped precisions 10/11, 7/8, 5/5, 3/3,
    # 11 candidate vs 13 reference tokens
    cands = [["the", "cat", "sat", "on", "the", "mat"], ["the", "dog", "ran"], ["a", "bird"]]
    refs = [["the", "cat", "sat", "on", "the", "mat"], ["the", "dog", "ran", "away"], ["the", "bird", "flew"]]
    precisions = [10 / 11, 7 / 8, 1.0, 1.0]
    bp = math.exp(1 - 13 / 11)
    problems = []
    for n in range(1, 5):
        hand = bp * math.exp(sum(math.log(p) for p in precisions[:n]) / n)
        if abs(oracles.corpus_bleu(cands, refs, n) - hand) > 1e-12:
            problems.append(f"BLEU-{n}: {oracles.corpus_bleu(cands, refs, n)!r} vs hand {hand!r}")
        if abs(oracles.corpus_bleu(refs, refs, n) - 1.0) > 1e-12:
            problems.append(f"BLEU-{n} of a corpus against itself is not 1")
    # 11 tokens, 9 distinct; 8 bigrams, all distinct
    for n, hand in ((1, 9 / 11), (2, 1.0)):
        if oracles.distinct(cands, n) != hand:
            problems.append(f"distinct-{n}: {oracles.distinct(cands, n)!r} vs hand {hand!r}")
    return problems


def check_bridges() -> list[str]:
    # a -> m is two-hop eligible, m -> b is one-hop only, a -> b is a direct
    # scene edge, and b -> b would make a two-hop path whose middle is the tail
    tuples = [("a", "r1", "m", "scene"), ("m", "r2", "b", "textrel"), ("a", "r3", "b", "scene"), ("b", "r4", "b", "scene")]
    cases = [
        ({"a"}, {"b"}, [("a", ("r3",), None, "b")]),
        ({"a"}, {"m", "b"}, [("a", ("r1",), None, "m"), ("a", ("r3",), None, "b")]),
        ({"m"}, {"b"}, [("m", ("r2",), None, "b")]),
        ({"b"}, {"b"}, [("b", ("r4",), None, "b")]),
    ]
    problems = []
    for a, b, hand in cases:
        got = oracles.brute_bridges(tuples, {"scene"}, a, b)
        if got != hand:
            problems.append(f"bridges {sorted(a)} -> {sorted(b)}: {got} vs hand {hand}")
    # with m -> b in the two-hop source, a -> m -> b appears and sorts first: ("r1", "r2") < ("r3",)
    eligible = [(h, r, t, "scene") for h, r, t, _s in tuples]
    hand = [("a", ("r1", "r2"), "m", "b"), ("a", ("r3",), None, "b")]
    got = oracles.brute_bridges(eligible, {"scene"}, {"a"}, {"b"})
    if got != hand:
        problems.append(f"bridges with an eligible middle: {got} vs hand {hand}")
    if oracles.brute_bridges(eligible, {"scene"}, {"a"}, {"b"}, allow_two_hop=False) != hand[1:]:
        problems.append("two-hop bridges returned with two-hop off")
    return problems


def check_gru() -> list[str]:
    # hidden size 1, vocabulary [a, b]; only w_xn, the embedding and the output
    # layer are nonzero, so r = z = 1/2 and h' = (tanh(x) + h) / 2
    def param(value):
        arr = np.asarray(value, dtype=np.float64)
        return {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}

    zero11, zero1 = param([[0.0]]), param([0.0])
    payload = {
        "extra": {"vocab": ["a", "b"], "hidden_size": 1},
        "params": {
            "lm.embedding": param([[1.0], [-0.5]]),
            "lm.gru.w_xr": zero11, "lm.gru.w_hr": zero11, "lm.gru.b_r": zero1,
            "lm.gru.w_xz": zero11, "lm.gru.w_hz": zero11, "lm.gru.b_z": zero1,
            "lm.gru.w_xn": param([[1.0]]), "lm.gru.b_nx": zero1,
            "lm.gru.w_hn": zero11, "lm.gru.b_nh": zero1,
            "lm.w_out": param([[0.0, 2.0]]), "lm.b_out": param([0.0, math.log(3.0)]),
        },
    }
    model = oracles.NumpyGRULM(payload)

    def log_p_b(h):  # logits [0, 2h + ln 3]
        return 2 * h + math.log(3.0) - math.log(1.0 + 3.0 * math.exp(2 * h))

    def log_p_a(h):
        return -math.log(1.0 + 3.0 * math.exp(2 * h))

    h1 = math.tanh(1.0) / 2  # after reading a
    h2 = (math.tanh(-0.5) + h1) / 2  # after reading b
    hand = log_p_b(h1) + log_p_a(h2)  # the sequence a b a
    problems = []
    got = model.log_prob(["a", "b", "a"])
    if abs(got - hand) > 1e-12:
        problems.append(f"GRU log-probability of 'a b a': {got!r} vs hand {hand!r}")
    if abs(model.perplexity(["a", "b", "a"]) - math.exp(-hand / 2)) > 1e-12:
        problems.append("GRU perplexity does not normalise by the scored token count")
    return problems


def check_beam() -> list[str]:
    # vocabulary {0: excluded, 1: x, 2: y, 3: boundary}; every step gives
    # log p = log [.1, .4, .4, .1]; no penalties, beam 2, cap 2, one sentence.
    # Step 1 ties x and y: the lower id (x) ranks first. Step 2 ties all four
    # extensions: x before y, then hypothesis (x) before (y), so (x x) and
    # (y x) survive. Step 3 forces the boundary on both; the exact tie goes
    # to the earlier one.
    logp = np.log([0.1, 0.4, 0.4, 0.1])
    problems = []
    tokens, score, truncated = oracles.reference_beam(lambda prefix: logp, 4, 3, 1, 0.0, 0.0, 2, 2, [0])
    hand = 2 * math.log(0.4) + math.log(0.1)
    if tokens != [1, 1, 3] or score != hand or truncated is not True:
        problems.append(f"tie-breaking: {tokens} {score!r} {truncated} vs hand [1, 1, 3] {hand!r} True")
    # log p = log [.15, .4, .4, .05], alpha 20, gamma 5, beam 1, cap 2, two
    # sentences. x (tie, lower id); then y, as x would pay alpha; a forced
    # boundary. After 3 tokens x and y both pay gamma/3 and tie: x. After 4,
    # x would pay alpha and y pays gamma/4: y; a forced boundary ends it.
    logp = np.log([0.15, 0.4, 0.4, 0.05])
    tokens, score, truncated = oracles.reference_beam(lambda prefix: logp, 4, 3, 2, 20.0, 5.0, 1, 2, [0])
    l4, l05 = math.log(0.4), math.log(0.05)
    hand = l4 + l4 + l05 + (l4 - 5.0 / 3) + (l4 - 5.0 / 4) + l05
    if tokens != [1, 2, 3, 1, 2, 3] or abs(score - hand) > 1e-12 or truncated is not True:
        problems.append(f"penalties: {tokens} {score!r} {truncated} vs hand [1, 2, 3, 1, 2, 3] {hand!r} True")
    return problems


def main() -> int:
    failed = 0
    for name, check in (("bleu/distinct", check_bleu), ("bridges", check_bridges),
                        ("gru rescoring", check_gru), ("reference beam", check_beam)):
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0
