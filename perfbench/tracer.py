"""Spans and counts around the program's public calls, for the traced run.

``Tracer.install`` swaps wrappers in for the program's functions and
methods (in every ``storybridge`` module that holds them), so calls the
program makes internally are seen too; ``uninstall`` puts the originals
back. Nothing in the program changes on disk.

Each wrapped call is a span: name, start, end, the span that caused it, and
the id of the benchmark operation it belongs to. Spans stay in memory and
are written out when the run ends. Counts are kept at the same boundaries.
A span's self time is its duration minus the durations of its direct
children. Autodiff ops are counted but get no span of their own.

Work is recorded per phase: "once" (set-up, training) and "round" (the
repeated operations). ``values(rounds)`` reports once + round / rounds, i.e.
one run with a single round, so counts repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

AUTODIFF_OPS = (
    "add", "sub", "mul", "scale", "matmul", "transpose", "reshape", "concat", "reduce_sum",
    "reduce_mean", "tanh", "sigmoid", "relu", "softmax", "layernorm", "embed", "softmax_cross_entropy",
)

PREFIX_BUCKETS = (("1_16", 1, 16), ("17_32", 17, 32), ("33_64", 33, 64), ("65_up", 65, None))


@contextlib.contextmanager
def recording(tracer, phase):
    """Record under ``phase`` ("once", "round", or None to pause) if tracing."""
    if tracer is None:
        yield
        return
    previous, tracer.phase = tracer.phase, phase
    try:
        yield
    finally:
        tracer.phase = previous


class _Stats:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.step_times: list[tuple[int, float]] = []  # (prefix length incl. <bos>, seconds)


class Tracer:
    def __init__(self):
        self.phase = None  # None records nothing; otherwise "once" or "round"
        self.stats = {"once": _Stats(), "round": _Stats()}
        self.spans: list[tuple] = []
        self.extra: dict[str, tuple[float, str]] = {}
        self._stack: list[list] = []
        self._open = Counter()
        self._next_id = 0
        self._op = 0
        self._t0 = time.perf_counter()
        self._undo: list[tuple] = []
        self._bridges_in_build = 0

    # ------------------------------------------------------------ recording

    def begin_op(self) -> None:
        self._op += 1

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child = frame
        duration = end - start
        st = self.stats[self.phase]
        st.calls[name] += 1
        st.total[name] += duration
        st.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        self._open[name] -= 1
        self.spans.append((span_id, parent, self._op, self.phase, name, start - self._t0, end - self._t0))
        return duration

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(stats, args, result) runs once it returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer.stats[tracer.phase], args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is not None:
                tracer.stats[tracer.phase].counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch_function(self, module, name: str, make) -> None:
        original = getattr(module, name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "storybridge" or mod_name.startswith("storybridge.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, name: str, make) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(cls, name, replacement)
        self._undo.append((cls, name, original))

    def install(self) -> None:
        from storybridge import autodiff, corpus, distill, enrich, fixtures, generate, kg, layers, lm, optim, params, pipeline

        for op in AUTODIFF_OPS:
            self._patch_function(autodiff, op, lambda fn: self.counter("autodiff.ops", fn))
        spans = [
            (autodiff, "backward", "autodiff.backward", None),
            (layers, "gru_cell", "layers.gru_cell", self._after_gru),
            (layers, "multi_head_attention", "layers.attention", None),
            (optim, "adam_step", "optim.adam", None),
            (fixtures, "write_fixtures", "fixtures.write", None),
            (corpus, "build_training_pairs", "corpus.build_pairs", None),
            (kg, "load_tuples", "kg.load", None),
            (enrich, "build_candidates", "enrich.build", self._after_build),
            (enrich, "select_best", "enrich.select", self._after_select),
            (lm, "perplexity", "lm.perplexity", self._after_perplexity),
            (generate, "beam_decode", "generate.beam", None),
            (generate, "decode_story", "generate.decode", self._after_decode),
            (pipeline, "stage_distill", "pipeline.distill", None),
            (pipeline, "stage_enrich", "pipeline.enrich", None),
            (pipeline, "stage_generate", "pipeline.generate", None),
            (pipeline, "train_distiller_command", "pipeline.train_distiller", None),
            (pipeline, "train_lm_command", "pipeline.train_lm", None),
            (pipeline, "train_generator_command", "pipeline.train_generator", None),
            (pipeline, "evaluate_stories", "metrics.eval", None),
        ]
        for module, name, span_name, after in spans:
            self._patch_function(module, name, lambda fn, s=span_name, a=after: self.span(s, fn, a))
        methods = [
            (layers.TransformerEncoder, "__call__", "layers.encoder", None),
            (layers.TransformerDecoder, "__call__", "layers.decoder", None),
            (params.ParameterStore, "save", "params.save", self._after_save),
            (params.ParameterStore, "load", "params.load", None),
            (distill.DistillerModel, "encode_objects", "distill.encode", None),
            (distill.DistillerModel, "predict_terms", "distill.predict", None),
            (kg.RelationIndex, "enumerate_bridges", "kg.enumerate", self._after_enumerate),
            (generate.GeneratorModel, "encode_path", "generate.encode", None),
        ]
        for cls, name, span_name, after in methods:
            self._patch_method(cls, name, lambda fn, s=span_name, a=after: self.span(s, fn, a))
        self._patch_method(generate.GeneratorModel, "step_log_probs_fn", self._wrap_step_factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ counts

    def _after_gru(self, st, args, result):
        if self._open["distill.predict"]:
            st.counts["distill.hyp_steps"] += 1

    def _after_enumerate(self, st, args, result):
        two = sum(1 for b in result if b.middle is not None)
        st.counts["kg.two_hop_bridges"] += two
        st.counts["kg.one_hop_bridges"] += len(result) - two
        if self._open["enrich.build"]:
            self._bridges_in_build += len(result)

    def _after_build(self, st, args, result):
        st.counts["enrich.candidates_before_cap"] += 1 + self._bridges_in_build
        self._bridges_in_build = 0

    def _after_select(self, st, args, result):
        st.counts["enrich.candidates_scored"] += len(args[0])
        st.counts["enrich.bridged_paths"] += int(result.path.bridge is not None)

    def _after_perplexity(self, st, args, result):
        st.counts["lm.scored_tokens"] += len(args[1]) - 1

    def _after_decode(self, st, args, result):
        cap = args[1].config.max_sentence_tokens
        st.counts["generate.tokens"] += len(result.tokens)
        st.counts["generate.forced_closes"] += sum(1 for s in result.sentences if len(s) >= cap)

    def _after_save(self, st, args, result):
        st.counts["params.save_bytes"] += os.path.getsize(args[1])

    def _wrap_step_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def step_log_probs_fn(model, groups, budget):
            step = factory(model, groups, budget)

            def traced_step(prefix_ids):
                if tracer.phase is None:
                    return step(prefix_ids)
                frame = tracer._enter("generate.step")
                try:
                    return step(prefix_ids)
                finally:
                    seconds = tracer._exit(frame)
                    tracer.stats[tracer.phase].step_times.append((len(prefix_ids) + 1, seconds))

            return traced_step

        return step_log_probs_fn

    # ------------------------------------------------------------ results

    def values(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for set-up plus one round."""
        once, rnd = self.stats["once"], self.stats["round"]

        def count(name):
            return once.counts[name] + rnd.counts[name] / rounds

        def calls(name):
            return once.calls[name] + rnd.calls[name] / rounds

        def self_s(name):
            return once.self_s[name] + rnd.self_s[name] / rounds

        def total(name):
            return once.total[name] + rnd.total[name] / rounds

        out = {
            "autodiff.ops": (count("autodiff.ops"), "count"),
            "autodiff.backward_calls": (calls("autodiff.backward"), "count"),
            "autodiff.backward_s": (self_s("autodiff.backward"), "s"),
            "layers.gru_cell_calls": (calls("layers.gru_cell"), "count"),
            "layers.gru_cell_s": (self_s("layers.gru_cell"), "s"),
            "layers.attention_calls": (calls("layers.attention"), "count"),
            "layers.attention_s": (self_s("layers.attention"), "s"),
            "layers.encoder_s": (self_s("layers.encoder"), "s"),
            "layers.decoder_s": (self_s("layers.decoder"), "s"),
            "optim.adam_steps": (calls("optim.adam"), "count"),
            "optim.adam_s": (self_s("optim.adam"), "s"),
            "params.save_s": (self_s("params.save"), "s"),
            "params.save_mb": (count("params.save_bytes") / 1e6, "MB"),
            "params.load_s": (self_s("params.load"), "s"),
            "fixtures.write_s": (self_s("fixtures.write"), "s"),
            "corpus.build_pairs_s": (self_s("corpus.build_pairs"), "s"),
            "distill.encode_s": (self_s("distill.encode"), "s"),
            "distill.predict_s": (self_s("distill.predict"), "s"),
            "distill.hyp_steps": (count("distill.hyp_steps"), "count"),
            "kg.load_s": (self_s("kg.load"), "s"),
            "kg.enumerate_s": (self_s("kg.enumerate"), "s"),
            "kg.one_hop_bridges": (count("kg.one_hop_bridges"), "count"),
            "kg.two_hop_bridges": (count("kg.two_hop_bridges"), "count"),
            "lm.perplexity_calls": (calls("lm.perplexity"), "count"),
            "lm.scored_tokens": (count("lm.scored_tokens"), "count"),
            "lm.perplexity_s": (self_s("lm.perplexity"), "s"),
            "enrich.candidates_before_cap": (count("enrich.candidates_before_cap"), "count"),
            "enrich.candidates_scored": (count("enrich.candidates_scored"), "count"),
            "enrich.bridged_paths": (count("enrich.bridged_paths"), "count"),
            "enrich.build_s": (self_s("enrich.build"), "s"),
            "enrich.select_s": (self_s("enrich.select"), "s"),
            "generate.encode_s": (self_s("generate.encode"), "s"),
            "generate.step_calls": (calls("generate.step"), "count"),
            "generate.step_s": (self_s("generate.step"), "s"),
            "generate.beam_self_s": (self_s("generate.beam"), "s"),
            "generate.tokens": (count("generate.tokens"), "count"),
            "generate.forced_closes": (count("generate.forced_closes"), "count"),
            "pipeline.distill_s": (total("pipeline.distill"), "s"),
            "pipeline.enrich_s": (total("pipeline.enrich"), "s"),
            "pipeline.generate_s": (total("pipeline.generate"), "s"),
            "pipeline.train_distiller_s": (total("pipeline.train_distiller"), "s"),
            "pipeline.train_lm_s": (total("pipeline.train_lm"), "s"),
            "pipeline.train_generator_s": (total("pipeline.train_generator"), "s"),
            "metrics.eval_s": (self_s("metrics.eval"), "s"),
        }
        bridged = out["enrich.bridged_paths"][0]
        scored = out["enrich.candidates_scored"][0]
        out["enrich.scored_per_bridged_path"] = (scored / bridged if bridged else 0.0, "count")
        samples = once.step_times + rnd.step_times
        for label, lo, hi in PREFIX_BUCKETS:
            times = [s for n, s in samples if n >= lo and (hi is None or n <= hi)]
            out[f"generate.step_ms_prefix_{label}"] = (1000.0 * statistics.median(times) if times else 0.0, "ms")
        for model in ("distiller", "lm", "generator"):
            out[f"train.{model}_epoch_s"] = (0.0, "s")
        out.update(self.extra)
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, phase, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "phase": phase,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
