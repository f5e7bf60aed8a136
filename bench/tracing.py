"""Tracing for the traced benchmark run: wrappers installed around setcoh's layers.

The wrappers live here, not in ``src/``.  :func:`install` replaces each
wrapped function at every setcoh module that binds it (``datagen`` and
``verifier`` both bind ``logic.is_satisfiable``, ``trainer`` and
``evalkit`` both bind ``datagen.compose_union``, ...) and each wrapped
method on its class; :func:`uninstall` puts the originals back.

Hot calls (the oracle, scoring, forward/backward math) only aggregate a
call count, total time and self time.  Coarse calls (CLI commands,
corpus generation and I/O, training runs, mixtures) also keep a full
span: name, start, end, parent span, run id, and the calls and self time
of every wrapped function that ran inside it.  Spans stay in memory and
are written once, at the end of the run.

Hot leaf helpers (``logic.atoms_of``, ``logic.parse_formula``,
``model.tokenize``, ...) are left unwrapped: a wrapper costs about a
microsecond per call, and their time shows up as the self time of the
wrapped function that calls them.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

MODULES = ("logic", "datagen", "model", "trainer", "verifier", "evalkit", "cli")

SPAN, HOT = "span", "hot"

# (module, attribute or Class.method, kind)
WRAPPED = (
    ("logic", "is_satisfiable", HOT),
    ("datagen", "build_splits", SPAN),
    ("datagen", "gen_seed_pair", HOT),
    ("datagen", "apply_rule", HOT),
    ("datagen", "gen_qa_world", HOT),
    ("datagen", "gen_qa_set", HOT),
    ("datagen", "corrupt_qa", HOT),
    ("datagen", "compose_union", HOT),
    ("datagen", "validate_with_oracle", HOT),
    ("datagen", "pools", HOT),
    ("datagen", "save_jsonl", SPAN),
    ("datagen", "load_jsonl", SPAN),
    ("datagen", "StatementSet.namespaces", HOT),
    ("model", "build_vocabulary", HOT),
    ("model", "serialize_set", HOT),
    ("model", "energy_from_counts", HOT),
    ("model", "logits_from_counts", HOT),
    ("model", "accumulate_grad_energy", HOT),
    ("model", "accumulate_grad_logits", HOT),
    ("model", "save_params", HOT),
    ("model", "load_params", HOT),
    ("trainer", "train", SPAN),
    ("trainer", "train_binary", SPAN),
    ("trainer", "fine_tune", SPAN),
    ("trainer", "build_contrast_batch", HOT),
    ("trainer", "build_threshold_mixture", HOT),
    ("trainer", "learn_threshold", HOT),
    ("trainer", "_epoch_instances", HOT),   # called once per energy epoch: marks epochs
    ("trainer", "CountsCache.counts", HOT),
    ("verifier", "verify_set", HOT),
    ("verifier", "verify_elementwise", HOT),
    ("verifier", "locate", HOT),
    ("verifier", "pair_subsets", HOT),
    ("verifier", "external_scorer_from_file", HOT),
    ("verifier", "write_scores_file", HOT),
    ("verifier", "EnergyScorer.score", HOT),
    ("verifier", "BinarySoftmaxScorer.score", HOT),
    ("verifier", "OracleScorer.score", HOT),
    ("evalkit", "build_eval_mixture", SPAN),
    ("evalkit", "verification_report", SPAN),
    ("evalkit", "mtr_sweep", SPAN),
    ("evalkit", "ablation_report", SPAN),
    ("evalkit", "locate_metrics", HOT),
    ("evalkit", "macro_f1", HOT),
    ("evalkit", "best_mtr", HOT),
    ("evalkit", "energy_quartiles", HOT),
    ("cli", "main", SPAN),
    ("cli", "build_parser", HOT),
    ("cli", "cmd_gen", SPAN),
    ("cli", "cmd_train", SPAN),
    ("cli", "cmd_verify", SPAN),
    ("cli", "cmd_locate", SPAN),
    ("cli", "cmd_sweep", SPAN),
    ("cli", "cmd_ablate", SPAN),
    ("cli", "load_corpus", SPAN),
    ("cli", "resolve_scorer", HOT),
    ("cli", "load_threshold", HOT),
)

FORWARD = ("model.energy_from_counts", "model.logits_from_counts")
BACKWARD = ("model.accumulate_grad_energy", "model.accumulate_grad_logits")
SCORE_METHODS = ("verifier.EnergyScorer.score", "verifier.BinarySoftmaxScorer.score",
                 "verifier.OracleScorer.score")
# Score calls are filed under the verifier function that made them.
SCORE_CONTEXT = {"verifier.verify_set": "set", "verifier.verify_elementwise": "ew",
                 "verifier.locate": "locate"}


class Tracer:
    """Per-name call counts, total and self time, plus coarse spans for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.stats: dict[str, list] = {}        # name -> [calls, total seconds, self seconds]
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.epoch_s: list[float] = []
        # One frame per active wrapped call: [child seconds, name, span or None, epoch starts].
        self._stack: list[list] = []

    def _open_span(self, name: str) -> dict:
        parent = next((f[2]["id"] for f in reversed(self._stack) if f[2] is not None), None)
        record = {"id": len(self.spans), "name": name, "parent": parent, "run": self.run_id,
                  "before": {k: (v[0], v[2]) for k, v in self.stats.items()}}
        self.spans.append(record)
        return record

    def _close(self, frame: list, start: float, end: float) -> None:
        record = frame[2]
        if record is not None:
            before = record.pop("before")
            record["start"], record["end"] = start, end
            record["calls"], record["self_s"] = {}, {}
            for k, (calls, _, self_s) in self.stats.items():
                calls0, self0 = before.get(k, (0, 0.0))
                if calls != calls0:
                    record["calls"][k] = calls - calls0
                    record["self_s"][k] = self_s - self0
        if frame[3]:
            marks = frame[3] + [end]
            self.epoch_s.extend(b - a for a, b in zip(marks, marks[1:]))

    def wrap(self, name: str, fn, span: bool):
        """``fn`` with its calls counted and timed under ``name``; a span too if ``span``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, hook, tracer = self._stack, _HOOKS.get(name), self

        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook.before(tracer, args)
            frame = [0.0, name, tracer._open_span(name) if span else None, None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if frame[2] is not None or frame[3] is not None:
                    tracer._close(frame, start, end)
            if hook is not None:
                hook.after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class _Hook:
    def before(self, tracer: Tracer, args: tuple) -> tuple:
        return args

    def after(self, tracer: Tracer, args: tuple, result) -> None:
        pass


class _SatHook(_Hook):
    def before(self, tracer, args):
        formulas = list(args[0])
        tracer.counters["logic.formulas"] += len(formulas)
        return (formulas,) + args[1:]

    def after(self, tracer, args, result):
        tracer.counters["logic.unsat"] += not result


class _BuildSplitsHook(_Hook):
    def after(self, tracer, args, result):
        tracer.counters["datagen.sets_generated"] += sum(len(v) for v in result.splits().values())


class _ContrastHook(_Hook):
    def after(self, tracer, args, result):
        tracer.counters["trainer.contrast_instances"] += len(result)


class _EpochHook(_Hook):
    def before(self, tracer, args):
        for frame in reversed(tracer._stack):
            if frame[1] == "trainer.train":
                frame[3] = (frame[3] or []) + [perf_counter()]
                break
        return args


class _LocateHook(_Hook):
    def after(self, tracer, args, result):
        tracer.counters["verifier.locate_iterations"] += len(result.trace)
        tracer.counters["verifier.locate_removed"] += len(result.removed_indices)


class _ScoreHook(_Hook):
    def __init__(self, oracle: bool) -> None:
        self.keys = {parent: f"verifier.score_calls.{context}" for parent, context in SCORE_CONTEXT.items()}
        if oracle:
            self.keys["verifier.locate"] += "_oracle"

    def before(self, tracer, args):
        parent = tracer._stack[-1][1] if tracer._stack else ""
        tracer.counters[self.keys.get(parent, "verifier.score_calls.other")] += 1
        return args


_HOOKS = {
    "logic.is_satisfiable": _SatHook(),
    "datagen.build_splits": _BuildSplitsHook(),
    "trainer.build_contrast_batch": _ContrastHook(),
    "trainer._epoch_instances": _EpochHook(),
    "verifier.locate": _LocateHook(),
    "verifier.EnergyScorer.score": _ScoreHook(oracle=False),
    "verifier.BinarySoftmaxScorer.score": _ScoreHook(oracle=False),
    "verifier.OracleScorer.score": _ScoreHook(oracle=True),
}


def _setcoh_modules() -> list:
    import setcoh

    return [setcoh] + [importlib.import_module(f"setcoh.{m}") for m in MODULES + ("rules", "wordbank")]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every entry of :data:`WRAPPED` wherever setcoh binds it; returns the undo list."""
    modules = _setcoh_modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo: list[tuple] = []
    for module_name, attr, kind in WRAPPED:
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(by_name[module_name], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(name, original, kind == SPAN))
            undo.append((cls, method, original))
            continue
        original = getattr(by_name[module_name], attr)
        wrapper = tracer.wrap(name, original, kind == SPAN)
        for module in modules:
            for bound_name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, bound_name, wrapper)
                    undo.append((module, bound_name, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def _span_sum(tracer: Tracer, span_names, field: str, keys) -> float:
    return sum(
        value
        for record in tracer.spans if record["name"] in span_names
        for key, value in record[field].items() if key in keys
    )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _layer_self(tracer: Tracer, prefix: str, exclude=()) -> float:
    return sum(v[2] for k, v in tracer.stats.items() if k.startswith(prefix) and k not in exclude)


# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS = {
    "logic.sat_calls": ("count", "lower"),
    "logic.sat_s": ("s", "lower"),
    "logic.sat_formulas_per_call": ("formulas/call", "lower"),
    "logic.sat_unsat_frac": ("ratio", "higher"),
    "datagen.build_splits_s": ("s", "lower"),
    "datagen.self_s": ("s", "lower"),
    "datagen.sat_calls_per_set": ("calls/set", "lower"),
    "datagen.corrupt_qa_calls": ("count", "lower"),
    "datagen.corrupt_qa_s": ("s", "lower"),
    "datagen.apply_rule_calls": ("count", "lower"),
    "datagen.apply_rule_s": ("s", "lower"),
    "datagen.compose_union_calls": ("count", "lower"),
    "datagen.compose_union_s": ("s", "lower"),
    "datagen.namespaces_calls": ("count", "lower"),
    "datagen.namespaces_s": ("s", "lower"),
    "datagen.save_jsonl_s": ("s", "lower"),
    "datagen.load_jsonl_calls": ("count", "lower"),
    "datagen.load_jsonl_s": ("s", "lower"),
    "model.serialize_set_calls": ("count", "lower"),
    "model.serialize_set_s": ("s", "lower"),
    "model.forward_calls": ("count", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.backward_calls": ("count", "lower"),
    "model.backward_s": ("s", "lower"),
    "model.train_math_frac": ("ratio", "higher"),
    "trainer.train_s": ("s", "lower"),
    "trainer.train_binary_s": ("s", "lower"),
    "trainer.self_s": ("s", "lower"),
    "trainer.contrast_batch_calls": ("count", "lower"),
    "trainer.contrast_batch_s": ("s", "lower"),
    "trainer.contrast_instances": ("count", "higher"),
    "trainer.counts_calls": ("count", "lower"),
    "trainer.counts_s": ("s", "lower"),
    "trainer.epoch_s_p50": ("s", "lower"),
    "verifier.score_calls.set": ("count", "lower"),
    "verifier.score_calls.ew": ("count", "lower"),
    "verifier.score_calls.locate": ("count", "lower"),
    "verifier.score_calls.locate_oracle": ("count", "lower"),
    "verifier.score_s.model": ("s", "lower"),
    "verifier.score_s.oracle": ("s", "lower"),
    "verifier.self_s": ("s", "lower"),
    "verifier.locate_iterations": ("count", "lower"),
    "verifier.locate_calls_per_removed": ("calls/removed", "lower"),
    "evalkit.mixture_calls": ("count", "lower"),
    "evalkit.mixture_s": ("s", "lower"),
    "evalkit.sweep_s": ("s", "lower"),
    "cli.gen_s": ("s", "lower"),
    "cli.train_energy_s": ("s", "lower"),
    "cli.train_binary_s": ("s", "lower"),
    "cli.verify_set_s": ("s", "lower"),
    "cli.verify_ew_s": ("s", "lower"),
    "cli.verify_oracle_s": ("s", "lower"),
    "cli.locate_s": ("s", "lower"),
    "cli.locate_oracle_s": ("s", "lower"),
    "cli.sweep_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

CLI_STEPS = ("gen", "train_energy", "train_binary", "verify_set", "verify_ew",
             "verify_oracle", "locate", "locate_oracle", "sweep")


def layer_metrics(tracer: Tracer, cli_step_s: dict[str, float], overhead_frac: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value; a layer that did not run reads 0."""
    t = tracer
    calls = defaultdict(int, {k: v[0] for k, v in t.stats.items()})
    total = defaultdict(float, {k: v[1] for k, v in t.stats.items()})
    sat_calls = calls["logic.is_satisfiable"]
    splits = ("datagen.build_splits",)
    datagen_self_in_gen = _span_sum(t, splits, "self_s", {k for k in t.stats if k.startswith("datagen.")})
    sat_in_gen = _span_sum(t, splits, "calls", {"logic.is_satisfiable"})
    training = ("trainer.train", "trainer.train_binary")
    math_in_training = _span_sum(t, training, "self_s", set(FORWARD + BACKWARD))
    score_model = sum(total[k] for k in SCORE_METHODS if "Oracle" not in k)
    locate_calls = t.counters["verifier.score_calls.locate"] + t.counters["verifier.score_calls.locate_oracle"]
    out = {
        "logic.sat_calls": sat_calls,
        "logic.sat_s": total["logic.is_satisfiable"],
        "logic.sat_formulas_per_call": _ratio(t.counters["logic.formulas"], sat_calls),
        "logic.sat_unsat_frac": _ratio(t.counters["logic.unsat"], sat_calls),
        "datagen.build_splits_s": total["datagen.build_splits"],
        "datagen.self_s": datagen_self_in_gen,
        "datagen.sat_calls_per_set": _ratio(sat_in_gen, t.counters["datagen.sets_generated"]),
        "datagen.corrupt_qa_calls": calls["datagen.corrupt_qa"],
        "datagen.corrupt_qa_s": total["datagen.corrupt_qa"],
        "datagen.apply_rule_calls": calls["datagen.apply_rule"],
        "datagen.apply_rule_s": total["datagen.apply_rule"],
        "datagen.compose_union_calls": calls["datagen.compose_union"],
        "datagen.compose_union_s": total["datagen.compose_union"],
        "datagen.namespaces_calls": calls["datagen.StatementSet.namespaces"],
        "datagen.namespaces_s": total["datagen.StatementSet.namespaces"],
        "datagen.save_jsonl_s": total["datagen.save_jsonl"],
        "datagen.load_jsonl_calls": calls["datagen.load_jsonl"],
        "datagen.load_jsonl_s": total["datagen.load_jsonl"],
        "model.serialize_set_calls": calls["model.serialize_set"],
        "model.serialize_set_s": total["model.serialize_set"],
        "model.forward_calls": sum(calls[k] for k in FORWARD),
        "model.forward_s": sum(total[k] for k in FORWARD),
        "model.backward_calls": sum(calls[k] for k in BACKWARD),
        "model.backward_s": sum(total[k] for k in BACKWARD),
        "model.train_math_frac": _ratio(math_in_training, sum(total[k] for k in training)),
        "trainer.train_s": total["trainer.train"],
        "trainer.train_binary_s": total["trainer.train_binary"],
        "trainer.self_s": _layer_self(t, "trainer.", exclude={"trainer.CountsCache.counts"}),
        "trainer.contrast_batch_calls": calls["trainer.build_contrast_batch"],
        "trainer.contrast_batch_s": total["trainer.build_contrast_batch"],
        "trainer.contrast_instances": t.counters["trainer.contrast_instances"],
        "trainer.counts_calls": calls["trainer.CountsCache.counts"],
        "trainer.counts_s": total["trainer.CountsCache.counts"],
        "trainer.epoch_s_p50": statistics.median(t.epoch_s) if t.epoch_s else 0.0,
        "verifier.score_calls.set": t.counters["verifier.score_calls.set"],
        "verifier.score_calls.ew": t.counters["verifier.score_calls.ew"],
        "verifier.score_calls.locate": t.counters["verifier.score_calls.locate"],
        "verifier.score_calls.locate_oracle": t.counters["verifier.score_calls.locate_oracle"],
        "verifier.score_s.model": score_model,
        "verifier.score_s.oracle": total["verifier.OracleScorer.score"],
        "verifier.self_s": _layer_self(t, "verifier.", exclude=set(SCORE_METHODS)),
        "verifier.locate_iterations": t.counters["verifier.locate_iterations"],
        "verifier.locate_calls_per_removed": _ratio(locate_calls, t.counters["verifier.locate_removed"]),
        "evalkit.mixture_calls": calls["evalkit.build_eval_mixture"],
        "evalkit.mixture_s": total["evalkit.build_eval_mixture"],
        "evalkit.sweep_s": total["evalkit.mtr_sweep"],
        "cli.self_s": _layer_self(t, "cli."),
        "trace.overhead_frac": overhead_frac,
    }
    for step in CLI_STEPS:
        out[f"cli.{step}_s"] = cli_step_s.get(step, 0.0)
    return {name: float(out[name]) for name in LAYER_METRICS}
