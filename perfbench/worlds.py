"""Published-scale synthetic worlds: model checkpoints, term paths, features, KG.

The checkpoints hold seeded, untrained weights at the published sizes. They
are written once per version of the program's source by the program's own
``save`` into ``.perfbench/cache/<key>/`` and loaded by the workloads during
set-up. Everything else a workload reads (term paths, object features, the
knowledge graph) is made from the run's ``--seed``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from bench import HERE, ROOT, SRC, work_dir

WEIGHT_SEED = 20191203  # fixed: the checkpoints do not depend on --seed

# published-generate: hidden 512, 2 heads, 4+4 layers, ff x4, V = 5000
GEN_VOCAB = 5000
GEN_SENTENCE_CAP = 8  # max_sentence_tokens and the per-sentence budget
GEN_TERMS = 1500  # words w0000.. that term groups are drawn from
ALPHA, GAMMA, BEAM = 20.0, 5.0, 3

# published-distill-enrich: hidden 512, 2 heads, 4 layers, beam 3, 2000 terms
DIST_TERMS = 2000  # including the end-of-set marker
MAX_TERMS_PER_IMAGE = 8
OBJECTS_PER_IMAGE = 30  # the program keeps the top 25 by confidence
LM_HIDDEN = 64
RELATIONS = [f"rel{i:02d}" for i in range(24)]
HUBS = 16
HUB_LINKS = 8  # each term links out to 8 hubs and in from 8 hubs (two-hop source)
SCENE_RANDOM_TUPLES = 4000  # heavy-tailed extra edges in the two-hop source
TEXTREL_TUPLES = 3000  # one-hop-only source
CANDIDATE_CAP = 100


def generator_vocab() -> list[str]:
    from storybridge.generate import BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY
    from storybridge.lm import BOS, EOS, SEP, UNK

    markers = [BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY, UNK, BOS, EOS, SEP]
    return markers + [f"w{i:04d}" for i in range(GEN_VOCAB - len(markers))]


def term_vocab() -> list[str]:
    from storybridge.distill import END_OF_SET

    return [END_OF_SET] + [f"t{i:04d}" for i in range(DIST_TERMS - 1)]


def lm_vocab() -> list[str]:
    from storybridge.lm import BOS, EOS, SEP, UNK

    return sorted(set(term_vocab()[1:]) | set(RELATIONS) | {BOS, EOS, SEP, UNK})


# ------------------------------------------------------------------ cache


def cache_key() -> str:
    """Hash of the program's source and of this file, which fixes the models."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, "worlds.py")]
    for dirpath, _dirs, names in os.walk(os.path.join(SRC, "storybridge")):
        files.extend(os.path.join(dirpath, n) for n in names if n.endswith(".py"))
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def cache_paths(key: str) -> dict:
    base = os.path.join(work_dir("cache"), key)
    return {
        "dir": base,
        "generator": os.path.join(base, "generator.json"),
        "distiller": os.path.join(base, "distiller.json"),
        "lm": os.path.join(base, "term_lm.json"),
    }


def ensure_cache() -> tuple[dict, float]:
    """Checkpoint paths, building them in a child process if missing.

    Returns (paths, seconds spent building). Building is not set-up: it
    happens once per version of the program, and the child keeps the
    checkpoint writer's memory out of this process's peak RSS.
    """
    key = cache_key()
    paths = cache_paths(key)
    if os.path.isdir(paths["dir"]):
        return paths, 0.0
    t0 = time.perf_counter()
    root = work_dir("cache")
    for name in os.listdir(root):  # older program versions
        shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    tmp = paths["dir"] + ".tmp"
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--build-cache", tmp], check=True,
                   stdout=subprocess.DEVNULL)
    os.rename(tmp, paths["dir"])
    return paths, time.perf_counter() - t0


def build_cache(out_dir: str) -> None:
    """Write the three published-size checkpoints with the program's save."""
    from storybridge.distill import DistillerConfig, DistillerModel
    from storybridge.generate import GeneratorConfig, GeneratorModel
    from storybridge.lm import GRULanguageModel

    os.makedirs(out_dir, exist_ok=True)
    gen = GeneratorModel.build(
        generator_vocab(),
        GeneratorConfig(hidden_size=512, heads=2, encoder_layers=4, decoder_layers=4, ff_multiple=4,
                        max_sentence_tokens=GEN_SENTENCE_CAP, seed=WEIGHT_SEED),
        sentence_budget=GEN_SENTENCE_CAP,
    )
    gen.save(os.path.join(out_dir, "generator.json"))
    del gen
    dist = DistillerModel.build(
        term_vocab(),
        DistillerConfig(hidden_size=512, heads=2, layers=4, ff_multiple=4, num_slots=5,
                        max_terms_per_image=MAX_TERMS_PER_IMAGE, seed=WEIGHT_SEED),
    )
    dist.save(os.path.join(out_dir, "distiller.json"))
    del dist
    GRULanguageModel.build(lm_vocab(), hidden_size=LM_HIDDEN, seed=WEIGHT_SEED).save(os.path.join(out_dir, "term_lm.json"))


# ------------------------------------------------------------------ inputs from --seed


def story_paths(seed: int):
    """(warm-up path, timed round) for published-generate.

    The warm-up path has 2 groups. The round is [5 groups, 6 groups with a
    bridge, 5 groups], so its median story is always a 5-group one.
    """
    from storybridge.enrich import TermPath
    from storybridge.kg import Bridge

    rng = np.random.default_rng([seed, 1])
    words = generator_vocab()[7 : 7 + GEN_TERMS]

    def groups(n):
        return [list(rng.choice(words, size=int(rng.integers(2, 5)), replace=False)) for _ in range(n)]

    warm = TermPath.from_groups(groups(2), story_id=f"gen-{seed}-warm")
    first = TermPath.from_groups(groups(5), story_id=f"gen-{seed}-0")
    base = TermPath.from_groups(groups(5), story_id=f"gen-{seed}-1")
    k = int(rng.integers(0, 4))
    bridge = Bridge(base.groups[k][0], (str(rng.choice(words)),), None, base.groups[k + 1][0])
    bridged = base.with_bridge(k, bridge)
    last = TermPath.from_groups(groups(5), story_id=f"gen-{seed}-2")
    return warm, [first, bridged, last]


def image_sequences(seed: int, count: int):
    """Synthetic image sequences: 5 images of 30 detected objects, 2048-d each.

    Each image mixes the signatures of three of 40 seeded concepts, so the
    images of one sequence differ; confidences are random and the program
    keeps the top 25 objects.
    """
    from storybridge.distill import FEATURE_DIM, ImageSequence, ObjectFeatureSet

    rng = np.random.default_rng([seed, 2])
    concepts = rng.normal(size=(40, FEATURE_DIM))
    sequences = []
    for s in range(count):
        slots = []
        for image in range(5):
            chosen = rng.choice(40, size=3, replace=False)
            objects = []
            for _ in range(OBJECTS_PER_IMAGE):
                feature = concepts[rng.choice(chosen)] + 0.3 * rng.normal(size=FEATURE_DIM)
                objects.append((feature, float(rng.uniform(0.05, 0.99))))
            slots.append(ObjectFeatureSet.from_objects(image, objects))
        sequences.append(ImageSequence(f"seq-{seed}-{s}", slots))
    return sequences


def kg_tuples(seed: int) -> dict[str, list[tuple[str, str, str]]]:
    """Two sources over the distiller's terms, with hub-heavy degrees.

    "scene" (two-hop eligible): every term links out to 8 and in from 8 of
    16 hub terms, plus heavy-tailed random edges. "textrel" (one-hop only):
    random edges with heavy-tailed heads.
    """
    rng = np.random.default_rng([seed, 3])
    terms = term_vocab()[1:]
    order = rng.permutation(len(terms))
    hubs = [terms[i] for i in order[:HUBS]]
    zipf = 1.0 / np.arange(1, len(terms) + 1) ** 1.1
    zipf /= zipf.sum()

    def rel():
        return RELATIONS[int(rng.integers(len(RELATIONS)))]

    def heavy(n):
        return [terms[order[i]] for i in rng.choice(len(terms), size=n, p=zipf)]

    scene = []
    for t in terms:
        for h in rng.choice(hubs, size=HUB_LINKS, replace=False):
            scene.append((t, rel(), str(h)))
        for h in rng.choice(hubs, size=HUB_LINKS, replace=False):
            scene.append((str(h), rel(), t))
    scene += [(h, rel(), str(t)) for h, t in zip(heavy(SCENE_RANDOM_TUPLES), rng.choice(terms, SCENE_RANDOM_TUPLES))]
    textrel = [(h, rel(), str(t)) for h, t in zip(heavy(TEXTREL_TUPLES), rng.choice(terms, TEXTREL_TUPLES))]
    return {"scene": scene, "textrel": textrel}


def write_tsv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for head, relation, tail in rows:
            fh.write(f"{head}\t{relation}\t{tail}\n")
