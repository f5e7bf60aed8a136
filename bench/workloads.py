"""The three benchmark workloads over setcoh's generate -> train -> verify -> locate loop.

Every workload runs in this one process, single-threaded, as a closed
loop: each CLI command or library call starts after the previous one
returns.  A workload has a set-up, a timed phase that repeats its unit
of work until ``seconds`` have passed (at least once), and output checks
that run after the timed phase.  Each returns a :class:`Result`.

* ``qa-desk``: the README's QA pipeline through ``setcoh.cli.main``.
* ``snli-desk``: the same commands on the sentence corpus, without
  ``locate`` (sentence sets carry no gold indices).
* ``score-unions``: scoring only, over 3- and 4-part unions, with a
  trained energy scorer and with the truth-table oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
from setcoh import cli, datagen, evalkit, model, trainer, verifier

WORKLOADS = ("qa-desk", "snli-desk", "score-unions")

# name -> (unit, better): what a --trace 0 run reports, on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "verify_macro_f1": ("ratio", "higher"),
    "ew_macro_f1": ("ratio", "higher"),
}
# Printed and recorded by the workloads that run the stage.  They stay out of the
# machine-read result: not every workload has them, or they time a stage of a
# second or two, which this class of machine slows by up to half for seconds at
# a time (see bench/README.md).
STAGE_METRICS = {
    "setup_wall_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "gen_sets_per_s": ("sets/s", "higher"),
    "train_energy_inst_per_s": ("inst/s", "higher"),
    "train_binary_ex_per_s": ("ex/s", "higher"),
    "verify_sets_per_s": ("sets/s", "higher"),
    "ew_pairs_per_s": ("pairs/s", "higher"),
    "locate_ms_p50": ("ms", "lower"),
    "locate_ms_p99": ("ms", "lower"),
    "locate_oracle_ms_p50": ("ms", "lower"),
    "locate_oracle_ms_p99": ("ms", "lower"),
    "locate_em": ("ratio", "higher"),
    "oracle_verify_macro_f1": ("ratio", "higher"),
    "oracle_locate_em": ("ratio", "higher"),
    "sweep_best_mtr": ("ratio", "higher"),
    "sweep_best_macro_f1": ("ratio", "higher"),
}

CONTRAST_KINDS = 8          # the "eight" regime: instances per base pair
BINARY_EXAMPLES = 5         # C, I, CC, CI, II per base pair
UNION_CLASSES = ("CCC", "CCI", "CII", "III", "CCCC", "CCCI", "CCII", "CIII", "IIII")
# Every union part has 4 statements: at least 4, the CLI's locate default, so that each
# corrupted part has one certified fix; exactly 4, because scoring cost grows faster
# than linearly with union size and a seed whose pool leaned to large sets would be
# slower for its inputs alone.
UNION_PART_SIZE = 4
# score-unions trains one scorer, from the README seed, for every workload seed:
# --seed picks the scored sets, so scorer quality does not vary from seed to seed.
SCORER_SEED = 11

SIZES = {
    "full": {
        "qa-desk": {"counts": (2000, 200), "epochs": 20, "pairs": 800,
                    "verify_per_class": 50, "locate_per_class": 25, "sweep_per_class": 25},
        "snli-desk": {"counts": (2000, 200), "epochs": 5, "pairs": 800,
                      "verify_per_class": 50, "sweep_per_class": 25},
        "score-unions": {"counts": (200, 40), "test_count": 160, "epochs": 4, "pairs": 200,
                         "per_class": 112, "setups": 3},
        "import_repeats": 8,
    },
    "tiny": {
        "qa-desk": {"counts": (40, 16), "epochs": 2, "pairs": 40,
                    "verify_per_class": 3, "locate_per_class": 2, "sweep_per_class": 2},
        "snli-desk": {"counts": (40, 16), "epochs": 2, "pairs": 40,
                      "verify_per_class": 3, "sweep_per_class": 2},
        "score-unions": {"counts": (40, 16), "test_count": 16, "epochs": 2, "pairs": 40,
                         "per_class": 2, "setups": 2},
        "import_repeats": 2,
    },
}


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)    # END_TO_END, or LAYER_METRICS
    stage: dict[str, float] = field(default_factory=dict)      # STAGE_METRICS
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.op(ok)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def import_times(src: Path, repeats: int) -> list[tuple[float, float]]:
    """(seconds, reference kernels) of fresh interpreters importing ``setcoh.cli``:
    the desk workloads' set-up."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import setcoh.cli"
    times = []
    with speed.SpeedProbe() as probe:
        for _ in range(repeats):
            start = probe.sample()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
            times.append(probe.measure(start))
    return times


def setup_metrics(*parts: list[tuple[float, float]]) -> tuple[float, float]:
    """Set-up as (``setup_s``, ``setup_wall_s``): the sum over its parts of each part's
    median, in seconds at the reference speed and in wall seconds."""
    return (sum(statistics.median(ref for _, ref in part) for part in parts) * speed.REFERENCE_S,
            sum(statistics.median(wall for wall, _ in part) for part in parts))


class HashStore:
    """Artifact hashes of earlier runs in this checkout.

    Keys name the workload, seed and sizes and fingerprint the program's and the
    benchmark's sources, so runs of different code never compare against each other.
    """

    def __init__(self, path: Path, src: Path) -> None:
        self.path = path
        digest = hashlib.sha256()
        for root in (src, Path(__file__).resolve().parent):
            for source in sorted(root.rglob("*.py")):
                digest.update(source.relative_to(root).as_posix().encode() + b"\0" + source.read_bytes())
        self.fingerprint = digest.hexdigest()[:16]

    def check(self, workload: str, seed: int, size: dict, hashes: dict[str, str]) -> bool:
        key = f"{workload}:{seed}:{json.dumps(size, sort_keys=True)}:{self.fingerprint}"
        stored = json.loads(self.path.read_text()) if self.path.exists() else {}
        if key not in stored:
            stored[key] = hashes
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
            tmp.replace(self.path)
            return True
        return stored[key] == hashes


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- desk workloads

DESK_ARTIFACTS = (
    "data/data.jsonl", "model/model.bin", "model/threshold.txt", "binary/model.bin",
    "binary/threshold.txt", "verify/metrics.csv", "verify/summary.json",
    "verify_ew/metrics.csv", "verify_ew/summary.json", "verify_oracle/metrics.csv",
    "verify_oracle/summary.json", "locate/summary.json", "locate_oracle/summary.json",
    "sweep/summary.json",
)


def desk_steps(style: str, seed: int, size: dict, out: Path) -> list[tuple[str, list[str]]]:
    """The README commands.  Generation and training take the workload seed;
    the evaluation commands run as the README writes them, at the default seed 0."""
    data, energy_model = str(out / "data"), str(out / "model" / "model.bin")
    train_flags = ["--data", data, "--seed", str(seed), "--regime", "eight", "--lr", "2e-3",
                   "--epochs", str(size["epochs"]), "--pairs-per-epoch", str(size["pairs"])]

    def evaluate(command: str, name: str, scorer: str, *flags: str) -> list[str]:
        return [command, "--data", data, "--out", str(out / name), "--seed", "0",
                "--scorer", scorer, *flags]

    verify_n, sweep_n = str(size["verify_per_class"]), str(size["sweep_per_class"])
    steps = [
        ("gen", ["gen", "--style", style, "--seed", str(seed), "--out", data,
                 "--counts", "{},{}".format(*size["counts"])]),
        ("train_energy", ["train", "--out", str(out / "model"), *train_flags]),
        ("train_binary", ["train", "--arch", "binary", "--out", str(out / "binary"), *train_flags]),
        ("verify_set", evaluate("verify", "verify", energy_model, "--strategy", "set",
                                "--mixture-per-class", verify_n)),
        ("verify_ew", evaluate("verify", "verify_ew", energy_model, "--strategy", "elementwise",
                               "--mixture-per-class", verify_n)),
        ("verify_oracle", evaluate("verify", "verify_oracle", "oracle",
                                   "--mixture-per-class", verify_n)),
    ]
    if style == "qa":
        locate_n = str(size["locate_per_class"])
        steps += [
            ("locate", evaluate("locate", "locate", energy_model, "--mixture-per-class", locate_n)),
            ("locate_oracle", evaluate("locate", "locate_oracle", "oracle",
                                       "--mixture-per-class", locate_n)),
        ]
    steps.append(("sweep", evaluate("sweep", "sweep", energy_model,
                                    "--mixture-per-class", sweep_n)))
    return steps


def run_desk_pass(steps, result: Result, probe: speed.SpeedProbe) -> dict[str, float]:
    """Run each command in turn; returns its wall time, without the probe's, by step name."""
    step_s: dict[str, float] = {}
    for name, argv in steps:
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
        except SystemExit as exc:           # argparse rejected the flags
            code = exc.code
        except Exception:                   # a crash of the program under test is a failed operation
            traceback.print_exc()
            code = None
        step_s[name] = probe.elapsed(start, time.perf_counter())
        if code != 0:
            print(f"step {name} failed with exit code {code}", file=sys.stderr)
        result.op(code == 0)
    return step_s


def _summary(out: Path, name: str, key: str) -> float:
    """A value from a command's summary.json; 0.0 when the command wrote none."""
    path = out / name / "summary.json"
    return json.loads(path.read_text())[key] if path.exists() else 0.0


def desk_quality(out: Path, style: str) -> dict[str, float]:
    q = {
        "verify_macro_f1": _summary(out, "verify", "macro_f1"),
        "ew_macro_f1": _summary(out, "verify_ew", "macro_f1"),
        "oracle_verify_macro_f1": _summary(out, "verify_oracle", "macro_f1"),
        "sweep_best_mtr": _summary(out, "sweep", "best_mtr"),
        "sweep_best_macro_f1": _summary(out, "sweep", "best_macro_f1"),
    }
    if style == "qa":
        q["locate_em"] = _summary(out, "locate", "em")
        q["locate_f1"] = _summary(out, "locate", "f1")
        q["oracle_locate_em"] = _summary(out, "locate_oracle", "em")
    return q


def desk_hashes(out: Path) -> dict[str, str]:
    return {name: _sha256(out / name) for name in DESK_ARTIFACTS if (out / name).exists()}


def _desk_work(corpus: datagen.DatasetSplit, size: dict) -> dict[str, int]:
    """Work done by one pass, counted from its outputs: sets generated and pairs judged."""
    base_c, base_i = datagen.pools(corpus.test)
    mixture = evalkit.build_eval_mixture(base_c, base_i, size["verify_per_class"], rng_seed=0)
    return {
        "gen_sets": sum(len(v) for v in corpus.splits().values()),
        "verify_sets": len(mixture.sets),
        "ew_pairs": sum(len(s) * (len(s) - 1) // 2 for s in mixture.sets),
    }


def _expected_sets(counts: tuple[int, int]) -> int:
    """Sets build_splits makes: a consistent and an inconsistent set per pair, four splits."""
    train_count, eval_count = counts
    return 2 * (train_count + 3 * eval_count)


def _desk_checks(out: Path, corpus: datagen.DatasetSplit | None, size: dict, style: str,
                 result: Result) -> None:
    sets = [s for v in corpus.splits().values() for s in v] if corpus else []
    result.check("generated_set_count", len(sets) == _expected_sets(size["counts"]))
    result.check("generated_sets_certified",
                 bool(sets) and all(datagen.validate_with_oracle(s) for s in sets))
    quality = desk_quality(out, style)
    result.check("oracle_verify_f1_is_1", quality["oracle_verify_macro_f1"] == 1.0)
    if style == "qa":
        result.check("oracle_locate_em_is_1", quality["oracle_locate_em"] == 1.0)


def run_desk(workload: str, seed: int, seconds: float, traced: bool, scale: str,
             work: Path, store: HashStore, src: Path) -> Result:
    style = "qa" if workload == "qa-desk" else "snli"
    size = SIZES[scale][workload]
    result = Result(notes={"sizes": size})
    # Half the set-up repeats run before the timed phase and half after it, so that
    # one slow spell of the machine does not set them all.
    repeats = SIZES[scale]["import_repeats"]
    setup_times = [] if traced else import_times(src, repeats // 2)

    passes: list[tuple[Path, dict[str, float]]] = []
    pass_wall: list[tuple[float, float]] = []       # (seconds, reference kernels) per pass
    phase_start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while not passes or (not traced and time.perf_counter() - phase_start < seconds):
            out = work / f"pass{len(passes)}"
            start = probe.sample()
            passes.append((out, run_desk_pass(desk_steps(style, seed, size, out), result, probe)))
            pass_wall.append(probe.measure(start))
    rss = _peak_rss_mb()
    if not traced:
        setup_times += import_times(src, repeats - repeats // 2)
        result.metrics["setup_s"], result.stage["setup_wall_s"] = setup_metrics(setup_times)

    first = passes[0][0]
    if traced:
        tracer = tracing.Tracer(run_id=f"{workload}-seed{seed}")
        undo = tracing.install(tracer)
        try:
            traced_out = work / "traced"
            traced_step_s = run_desk_pass(desk_steps(style, seed, size, traced_out), result,
                                          speed.SpeedProbe())
        finally:
            tracing.uninstall(undo)
        tracer.write_spans(work.parent / f"spans-{workload}-seed{seed}.jsonl")
        result.metrics = tracing.layer_metrics(
            tracer, traced_step_s, sum(traced_step_s.values()) / pass_wall[0][0] - 1.0)
        result.check("traced_quality_equals_untraced",
                     desk_quality(traced_out, style) == desk_quality(first, style))
        result.check("traced_artifacts_equal_untraced", desk_hashes(traced_out) == desk_hashes(first))
        first = traced_out

    try:
        corpus = cli.load_corpus(first / "data")
    except (OSError, datagen.MalformedRecordError):     # gen failed: the checks fail
        corpus = None
    _desk_checks(first, corpus, size, style, result)
    hashes = desk_hashes(first)
    result.check("artifacts_deterministic_within_run", all(desk_hashes(o) == hashes for o, _ in passes))
    result.check("artifacts_deterministic_across_runs", store.check(workload, seed, size, hashes))
    quality = desk_quality(first, style)
    result.notes["passes"] = len(passes)
    result.notes["step_s"] = [s for _, s in passes]
    result.notes["pass_wall_s_ref"] = pass_wall
    if traced:
        return result

    work_done = _desk_work(corpus, size) if corpus else {"gen_sets": 0, "verify_sets": 0, "ew_pairs": 0}
    result.notes["work"] = work_done
    n_inst = size["epochs"] * size["pairs"]

    def per_pass(fn) -> float:
        return statistics.median(fn(s) for _, s in passes)

    result.metrics.update({
        "wall_ref": statistics.median(ref for _, ref in pass_wall),
        "peak_rss_mb": rss,
        "verify_macro_f1": quality["verify_macro_f1"],
        "ew_macro_f1": quality["ew_macro_f1"],
    })
    result.stage.update({
        "wall_s": statistics.median(wall for wall, _ in pass_wall),
        "gen_sets_per_s": per_pass(lambda s: work_done["gen_sets"] / s["gen"]),
        "train_energy_inst_per_s": per_pass(lambda s: n_inst * CONTRAST_KINDS / s["train_energy"]),
        "verify_sets_per_s": per_pass(lambda s: work_done["verify_sets"] / s["verify_set"]),
        "ew_pairs_per_s": per_pass(lambda s: work_done["ew_pairs"] / s["verify_ew"]),
        "train_binary_ex_per_s": per_pass(lambda s: n_inst * BINARY_EXAMPLES / s["train_binary"]),
        **{k: v for k, v in quality.items() if k != "locate_f1"},
    })
    result.notes["locate_f1"] = quality.get("locate_f1")
    return result


# ---------------------------------------------------------------- score-unions

@dataclass
class ScoreSetup:
    generated: list
    energy: verifier.EnergyScorer
    mixture: tuple
    gen_s: float
    train_s: float
    cost: tuple[float, float]       # (seconds, reference kernels) of the whole set-up
    digest: str


def score_setup(seed: int, size: dict, probe: speed.SpeedProbe) -> ScoreSetup:
    """Train the energy scorer on a corpus from :data:`SCORER_SEED`, then build the
    union mixture from the test split of a corpus generated from ``seed``.  Its times
    exclude the probe's."""
    start = probe.sample()
    train_count, eval_count = size["counts"]
    training = datagen.build_splits(
        datagen.GenConfig(style="qa", train_count=train_count, eval_count=eval_count), SCORER_SEED)
    scored = datagen.build_splits(
        datagen.GenConfig(style="qa", train_count=1, eval_count=size["test_count"]), seed)
    gen_done = time.perf_counter()
    params = model.ModelParams.init(model.build_vocabulary(training.train), seed=SCORER_SEED)
    config = trainer.TrainerConfig(learning_rate=2e-3, epochs=size["epochs"], regime="eight",
                                   rng_seed=SCORER_SEED, pairs_per_epoch=size["pairs"])
    trained = trainer.train(params, training, config)
    train_done = time.perf_counter()
    base_c, base_i = datagen.pools(scored.test)
    mixture = evalkit.build_eval_mixture(
        [s for s in base_c if len(s) == UNION_PART_SIZE],
        [s for s in base_i if len(s) == UNION_PART_SIZE],
        size["per_class"], rng_seed=seed, classes=UNION_CLASSES,
    ).sets
    cost = probe.measure(start)
    generated = [s for corpus in (training, scored) for v in corpus.splits().values() for s in v]
    digest = hashlib.sha256()
    for arr in trained.params.arrays().values():
        digest.update(arr.tobytes())
    digest.update(repr(trained.threshold.value).encode())
    for s in generated + list(mixture):
        digest.update(json.dumps(datagen.set_to_json(s), sort_keys=True).encode())
    return ScoreSetup(generated, verifier.EnergyScorer(trained.params, trained.threshold.value),
                      mixture, probe.elapsed(start, gen_done), probe.elapsed(gen_done, train_done),
                      cost, digest.hexdigest())


CHUNKS = 16   # stratified slices of the mixture: chunk c holds sets c, c+16, c+32, ...


@dataclass
class Chunk:
    wall_s: float = 0.0
    sets: int = 0
    verify_s: float = 0.0
    ew_s: float = 0.0
    ew_pairs: int = 0


@dataclass
class ScorePass:
    chunks: list = field(default_factory=list)
    locate_ms: list = field(default_factory=list)
    locate_oracle_ms: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)


def score_pass(setup: ScoreSetup, result: Result, probe: speed.SpeedProbe) -> ScorePass:
    """Per mixture set: verify_set, verify_elementwise (MTR 0) and locate with the trained
    scorer, then verify_set and locate with the oracle.  Element-wise verification with the
    oracle is left out: its 2-subset checks would triple the pass time.

    Sets run chunk by chunk; every chunk holds the same share of each union class, so
    chunk times differ by the machine's speed more than by their work.  Every time
    excludes the probe's."""
    p = ScorePass()
    oracle = verifier.OracleScorer()
    elapsed = probe.elapsed
    for c in range(CHUNKS):
        chunk = Chunk()
        chunk_start = time.perf_counter()
        for s in setup.mixture[c::CHUNKS]:
            try:
                t0 = time.perf_counter()
                set_verdict = verifier.verify_set(setup.energy, s)
                t1 = time.perf_counter()
                ew_verdict = verifier.verify_elementwise(setup.energy, s, 0.0)
                t2 = time.perf_counter()
                located = verifier.locate(setup.energy, s)
                t3 = time.perf_counter()
                oracle_verdict = verifier.verify_set(oracle, s)
                t4 = time.perf_counter()
                oracle_located = verifier.locate(oracle, s)
                t5 = time.perf_counter()
            except Exception:               # a crash of the program under test is a failed operation
                traceback.print_exc()
                result.op(False)
                continue
            result.attempted += 5
            chunk.sets += 1
            chunk.verify_s += elapsed(t0, t1)
            chunk.ew_s += elapsed(t1, t2)
            chunk.ew_pairs += ew_verdict.detail.pair_count
            p.locate_ms.append(elapsed(t2, t3) * 1e3)
            p.locate_oracle_ms.append(elapsed(t4, t5) * 1e3)
            p.verdicts[s.id] = (set_verdict.label, ew_verdict.label, located.removed_indices,
                                oracle_verdict.label, oracle_located.removed_indices)
        chunk.wall_s = elapsed(chunk_start, time.perf_counter())
        p.chunks.append(chunk)
    return p


def score_quality(setup: ScoreSetup, verdicts: dict) -> dict[str, float]:
    sets = setup.mixture
    golds = [s.label for s in sets]
    # Greedy locate is exact only where at most one statement is gold.
    single = [s for s in sets if len(s.gold_inconsistent_indices or ()) <= 1]

    def f1(which: int) -> float:
        return evalkit.macro_f1([verdicts[s.id][which] for s in sets], golds).macro_f1

    def em(which: int) -> float:
        results = [(verifier.LocateResult(verdicts[s.id][which], "", ()),
                    s.gold_inconsistent_indices or ()) for s in single]
        return evalkit.locate_metrics(results).em

    return {
        "verify_macro_f1": f1(0),
        "ew_macro_f1": f1(1),
        "locate_em": em(2),
        "oracle_verify_macro_f1": f1(3),
        "oracle_locate_em": em(4),
    }


def run_score_unions(seed: int, seconds: float, traced: bool, scale: str,
                     work: Path, store: HashStore, src: Path) -> Result:
    size = SIZES[scale]["score-unions"]
    result = Result(notes={"sizes": size})
    with speed.SpeedProbe() as probe:
        setups = [score_setup(seed, size, probe) for _ in range(1 if traced else size["setups"])]
    setup = setups[-1]
    result.notes["mixture_sets"] = len(setup.mixture)
    result.notes["mean_union_size"] = statistics.fmean(len(s) for s in setup.mixture)

    passes: list[ScorePass] = []
    pass_wall: list[tuple[float, float]] = []       # (seconds, reference kernels) per pass
    phase_start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while not passes or (not traced and time.perf_counter() - phase_start < seconds):
            start = probe.sample()
            passes.append(score_pass(setup, result, probe))
            pass_wall.append(probe.measure(start))
    rss = _peak_rss_mb()
    quality = score_quality(setup, passes[0].verdicts)

    if traced:
        tracer = tracing.Tracer(run_id=f"score-unions-seed{seed}")
        undo = tracing.install(tracer)
        try:
            traced_setup = score_setup(seed, size, speed.SpeedProbe())
            traced_pass = score_pass(traced_setup, result, speed.SpeedProbe())
        finally:
            tracing.uninstall(undo)
        tracer.write_spans(work.parent / f"spans-score-unions-seed{seed}.jsonl")
        traced_wall = sum(c.wall_s for c in traced_pass.chunks)
        result.metrics = tracing.layer_metrics(tracer, {}, traced_wall / pass_wall[0][0] - 1.0)
        setups.append(traced_setup)
        result.check("traced_quality_equals_untraced",
                     score_quality(traced_setup, traced_pass.verdicts) == quality)

    result.check("setup_deterministic_within_run", len({s.digest for s in setups}) == 1)
    result.check("setup_deterministic_across_runs",
                 store.check("score-unions", seed, size, {"setup": setup.digest}))
    result.check("verdicts_deterministic_within_run", all(p.verdicts == passes[0].verdicts for p in passes))
    result.check("generated_set_count", len(setup.generated) == _expected_sets(size["counts"])
                 + _expected_sets((1, size["test_count"])))
    result.check("generated_sets_certified",
                 all(datagen.validate_with_oracle(s) for s in setup.generated + list(setup.mixture)))
    result.check("oracle_verify_f1_is_1", quality["oracle_verify_macro_f1"] == 1.0)
    result.check("oracle_locate_em_is_1", quality["oracle_locate_em"] == 1.0)
    result.notes["passes"] = len(passes)
    result.notes["setup_gen_s"] = [x.gen_s for x in setups]
    result.notes["setup_train_s"] = [x.train_s for x in setups]
    result.notes["pass_wall_s_ref"] = pass_wall
    result.notes["chunk_s"] = [c.wall_s for x in passes for c in x.chunks]
    if traced:
        return result

    locate_ms = [x for p in passes for x in p.locate_ms]
    locate_oracle_ms = [x for p in passes for x in p.locate_oracle_ms]
    result.notes["locate_samples"] = len(locate_ms)
    n_inst = size["epochs"] * size["pairs"] * CONTRAST_KINDS
    chunks = [c for p in passes for c in p.chunks]
    setup_s, result.stage["setup_wall_s"] = setup_metrics(
        import_times(src, SIZES[scale]["import_repeats"]), [s.cost for s in setups])
    result.metrics.update({
        "setup_s": setup_s,
        "wall_ref": statistics.median(ref for _, ref in pass_wall),
        "peak_rss_mb": rss,
        "verify_macro_f1": quality["verify_macro_f1"],
        "ew_macro_f1": quality["ew_macro_f1"],
    })
    result.stage.update({
        "wall_s": statistics.median(wall for wall, _ in pass_wall),
        "gen_sets_per_s": statistics.median(len(s.generated) / s.gen_s for s in setups),
        "train_energy_inst_per_s": statistics.median(n_inst / s.train_s for s in setups),
        "verify_sets_per_s": statistics.median(c.sets / c.verify_s for c in chunks),
        "ew_pairs_per_s": statistics.median(c.ew_pairs / c.ew_s for c in chunks),
        "locate_ms_p50": statistics.median(locate_ms),
        "locate_ms_p99": _pct(locate_ms, 99),
        "locate_oracle_ms_p50": statistics.median(locate_oracle_ms),
        "locate_oracle_ms_p99": _pct(locate_oracle_ms, 99),
        "locate_em": quality["locate_em"],
        "oracle_verify_macro_f1": quality["oracle_verify_macro_f1"],
        "oracle_locate_em": quality["oracle_locate_em"],
    })
    return result


def run(workload: str, seed: int, seconds: float, traced: bool, scale: str,
        work_root: Path, src: Path) -> Result:
    """Run one workload in a fresh directory under ``work_root``, removed afterwards."""
    work = work_root / f"{workload}-seed{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    store = HashStore(work_root / "artifact_hashes.json", src)
    try:
        if workload == "score-unions":
            result = run_score_unions(seed, seconds, traced, scale, work, store, src)
        else:
            result = run_desk(workload, seed, seconds, traced, scale, work, store, src)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.stage["fail_ratio"] = result.failed / max(result.attempted, 1)
    return result
