#!/usr/bin/env python3
"""The sgqa benchmark: seeded HotpotQA-shaped inputs driven through the public
pipeline functions, with every output checked against the planted truth.

    python3 benchmark/run.py --workload instant-500 --seed 1 --seconds 30 --trace 0

Workloads (see benchmark/README.md for why each exists):

  instant-500   extract -> answer -> evaluate -> ground on the replay backend,
                then a resume pass (extract + answer) on the warm cache
  live-shared   extract -> answer over HTTP against a loopback stub that
                sleeps 10 ms per request; gold paragraphs recur across questions
  eval-7405     evaluate 7,405 predictions with labels and reference chains

With --trace 0 it repeats whole passes while they fit in --seconds (at least
one), sets the program up again between stages, and reports the end-to-end
metrics as medians over passes and over set-ups. With --trace 1
it runs one untraced and one traced pass, checks that their outputs are
byte-identical, and reports the per-layer metrics of the traced pass. The last
line of output is one JSON object: {correct, attempted, failed, metrics}.
Everything a run writes goes under .bench_tmp/ (removed at exit) and, for
traced runs, the span dump under .bench_out/.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from stub_server import MAX_CONNECTIONS, PING_MODEL  # noqa: E402

SGQA_MODULES = ("corpus", "prompts", "llm", "graph", "chain", "metrics", "grounding", "pipeline")
# Set-ups run in batches of at least SETUP_BATCH: one before the first pass
# and one after every stage, lasting SETUP_SHARE of that stage's wall time, so
# the setup_s median samples the whole run as questions_per_cpu_s does.
SETUP_BATCH = 3
SETUP_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    stages: tuple[str, ...]
    backend: str  # replay | live | none
    workers: int = 1


WORKLOADS = {
    "instant-500": Workload(("extract", "answer", "evaluate", "ground", "resume"), "replay"),
    "live-shared": Workload(("extract", "answer"), "live", workers=MAX_CONNECTIONS),
    "eval-7405": Workload(("evaluate",), "none"),
}

# The throughput metric is CPU time (user + system, all threads), not wall
# time. On a shared host wall time also holds the time other guests ran on
# this vCPU and, on instant-500, the host disk's delays on the manifest that is
# rewritten once per question; wall rates of ten runs spread by a fifth to more
# than a quarter of their median. The wall rate is printed as questions_per_s.
END_TO_END = {"questions_per_cpu_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics the runner adds to the span-derived ones.
RUN_LAYER_METRICS = {
    **{f"pipeline.{stage}.s": "s" for stage in spans.STAGES},
    "backend_calls": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
    "trace.spans": "count",
}
PER_LAYER = {**spans.LAYER_METRICS, **RUN_LAYER_METRICS}


class Checks:
    """Output checks; every compared record is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def rows(self, what: str, rows: list, key, want: dict, same):
        """One check per expected row, so each missing row fails, plus one
        failure per duplicate or unexpected row."""
        got: dict = {}
        for row in rows:
            k = key(row)
            if k in got:
                self.expect(False, f"duplicate {what} {k}")
            got[k] = row
        for k, expected in want.items():
            row = got.pop(k, None)
            self.expect(row is not None and same(row, expected),
                        f"{what} {k}: " + ("missing" if row is None else "differs"))
        for k in got:
            self.expect(False, f"unexpected {what} {k}")


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.stub = None
        self.endpoint = ""
        self.replay_calls = 0
        self._lock = threading.Lock()

    # -- inputs and environment ------------------------------------------

    def generate(self):
        subprocess.run(
            [sys.executable, str(HERE / "generate.py"), "--workload", self.name,
             "--seed", str(self.seed), "--out", str(self.inputs), "--src", str(SRC)],
            check=True, timeout=120,
        )
        self.truth = json.loads((self.inputs / "truth.json").read_text(encoding="utf-8"))

    def start_stub(self):
        if self.workload.backend != "live":
            return
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), "--fixture",
             str(self.inputs / "replay.jsonl"), "--src", str(SRC)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError(f"stub server failed to start: {line!r}")
        self.stub_base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.endpoint = f"{self.stub_base}/v1/completions"
        # requests must neither route loopback through a proxy nor read ~/.netrc.
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
        os.environ["NETRC"] = str(self.work / "netrc-absent")

    def stop_stub(self):
        if self.stub is None:
            return
        self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait(timeout=10)
        self.stub.stdout.close()
        self.stub = None

    def backend_calls(self) -> dict:
        """Backend requests served since the previous call, counted outside
        the program: by the stub, or by a counter on ReplayBackend.complete."""
        if self.stub is not None:
            with urllib.request.urlopen(f"{self.stub_base}/stats", timeout=30) as r:
                stats = json.loads(r.read())
            return {"requests": stats["requests"], "distinct": stats["distinct"],
                    "unknown": stats["unknown"]}
        with self._lock:
            calls, self.replay_calls = self.replay_calls, 0
        return {"requests": calls, "distinct": calls, "unknown": 0}

    # -- program set-up ----------------------------------------------------

    def config(self, cache_dir, output_dir):
        return self.sgqa.pipeline.RunConfig(
            dataset_path=str(self.inputs / "dataset.json"),
            variant="sg-multi", setting="cot",
            backend="live" if self.workload.backend == "live" else "replay",
            model_id=self.truth["model_id"],
            endpoint=self.endpoint,
            replay_file=str(self.inputs / "replay.jsonl"),
            cache_dir=str(cache_dir), output_dir=str(output_dir),
            workers=self.workload.workers,
        )

    def set_up_once(self) -> float:
        """Import sgqa afresh, load the dataset and demos, build the backend.
        The modules dropped from the previous set-up are collected first, so
        every set-up starts from a heap like a fresh process's."""
        for module in [m for m in sys.modules if m == "sgqa" or m.startswith("sgqa.")]:
            del sys.modules[module]
        gc.collect()
        start = perf_counter()
        sgqa = self.sgqa = SimpleNamespace(
            **{m: importlib.import_module(f"sgqa.{m}") for m in SGQA_MODULES})
        sgqa.corpus.load_dataset(self.inputs / "dataset.json")
        if self.workload.backend != "none":
            prompts = sgqa.prompts
            for kind, count in (("entity", prompts.DEFAULT_EXTRACTION_DEMOS),
                                ("relation", prompts.DEFAULT_EXTRACTION_DEMOS),
                                ("qa_cot", prompts.DEFAULT_QA_DEMOS)):
                prompts.select_demos(
                    prompts.load_demonstrations(prompts.default_demo_file(kind)), kind, count)
            backend = sgqa.pipeline.make_backend(self.config(self.work, self.work))
            if self.workload.backend == "live":
                ping = sgqa.llm.GenerationRequest(model_id=PING_MODEL, prompt="ping")
                if backend.complete(ping) != "pong":
                    raise RuntimeError("stub server did not answer the ping")
            del backend
        return perf_counter() - start

    def set_up(self, until: float = 0.0, at_least: int = 1) -> list[float]:
        """Set up `at_least` times and until perf_counter() reaches `until`;
        returns the time of each set-up."""
        times = []
        while len(times) < at_least or perf_counter() < until:
            times.append(self.set_up_once())
        self._count_replay_calls()
        gc.collect()  # stages start without the set-ups' garbage
        return times

    def _count_replay_calls(self):
        replay = self.sgqa.llm.ReplayBackend
        complete = replay.complete
        bench = self

        def counted(self, request):
            with bench._lock:
                bench.replay_calls += 1
            return complete(self, request)

        replay.complete = counted

    # -- one pass ----------------------------------------------------------

    def run_pass(self, pass_dir: Path, tracer: spans.Tracer | None = None,
                 after_stage=None) -> dict:
        """Run every stage of the workload once, calling `after_stage(seconds)`
        after each; returns the wall and CPU time (all threads of this process)
        and the backend calls of each stage."""
        sgqa, pipeline = self.sgqa, self.sgqa.pipeline
        run_dir = pass_dir / "run"
        config = self.config(pass_dir / "cache", run_dir)
        resume = dataclasses.replace(config, output_dir=str(pass_dir / "resume"))
        dataset = self.inputs / "dataset.json"
        predictions = (self.inputs / "predictions.jsonl" if self.workload.backend == "none"
                       else run_dir / "predictions.jsonl")

        def evaluate():
            records = sgqa.corpus.load_dataset(dataset)
            pipeline.run_evaluate(
                pipeline.read_predictions([predictions]), records, run_dir / "eval",
                human_labels=pipeline.read_labels(self.inputs / "labels.jsonl"),
                reference_chains=pipeline.read_reference_chains(self.inputs / "references.jsonl"),
            )

        def ground():
            records = sgqa.corpus.load_dataset(dataset)
            pipeline.run_ground(run_dir / "graphs.jsonl", records, run_dir / "grounding.jsonl",
                                html_dir=run_dir / "html")

        stage_fns = {
            "extract": lambda: pipeline.run_extract(config),
            "answer": lambda: pipeline.run_answer(config),
            "evaluate": evaluate,
            "ground": ground,
            "resume": lambda: (pipeline.run_extract(resume), pipeline.run_answer(resume)),
        }
        seconds, cpu, calls = {}, {}, {}
        self.backend_calls()
        for stage in self.workload.stages:
            start, start_cpu = perf_counter(), process_time()
            if tracer is None:
                stage_fns[stage]()
            else:
                with tracer.stage_span(stage):
                    stage_fns[stage]()
            seconds[stage] = perf_counter() - start
            cpu[stage] = process_time() - start_cpu
            calls[stage] = self.backend_calls()
            if after_stage is not None:
                after_stage(seconds[stage])
        return {"seconds": seconds, "cpu": cpu, "calls": calls}

    # -- output checks -----------------------------------------------------

    def check_pass(self, pass_dir: Path, result: dict, checks: Checks):
        truth, stages = self.truth, self.workload.stages
        run_dir = pass_dir / "run"
        graphs = {(qid, index): (title, spec) for qid, index, title, spec in truth.get("graphs", ())}
        if "extract" in stages:
            checks.rows(
                "graph", _read_jsonl(run_dir / "graphs.jsonl"),
                lambda row: (row["question_id"], row["paragraph_index"]), graphs,
                lambda row, want: (row["graph"]["source_title"], row["graph"]["entities"],
                                   row["graph"]["triples"])
                == (want[0], want[1]["entities"], want[1]["triples"]))
        if "answer" in stages:
            checks.rows(
                "prediction", _read_jsonl(run_dir / "predictions.jsonl"),
                lambda row: row["question_id"], truth["answers"],
                lambda row, want: row["answer"] == want and row["flags"] == [])
            manifest = self.sgqa.pipeline.RunManifest(run_dir / "manifest.json")
            for qid, reason in manifest.failed():
                checks.expect(False, f"manifest: {qid} failed: {reason}")
            calls = [result["calls"][s] for s in ("extract", "answer")]
            requests = sum(c["requests"] for c in calls)
            distinct = sum(c["distinct"] for c in calls)
            want = truth["distinct_keys"]
            checks.expect(distinct == want and requests >= want
                          and not any(c["unknown"] for c in calls),
                          f"backend served {requests} requests for {distinct} keys, want {want} keys")
        if "evaluate" in stages:
            self._check_metrics(run_dir / "eval", checks)
        if "ground" in stages:
            def grounded(row, want):
                spec = want[1]
                count = sum(e["grounded"] for e in row["elements"])
                return (len(row["elements"]), count, row["grounding_rate"]) == (
                    spec["elements"], spec["grounded"], spec["grounded"] / spec["elements"])

            checks.rows("grounding", _read_jsonl(run_dir / "grounding.jsonl"),
                        lambda row: (row["question_id"], row["paragraph_index"]), graphs, grounded)
            pages = len(list((run_dir / "html").iterdir()))
            checks.expect(pages == len(graphs), f"{pages} highlight pages, want {len(graphs)}")
        if "resume" in stages:
            for name in ("graphs.jsonl", "predictions.jsonl"):
                same = (run_dir / name).read_bytes() == (pass_dir / "resume" / name).read_bytes()
                checks.expect(same, f"resume pass changed {name}")
            calls = result["calls"]["resume"]["requests"]
            checks.expect(calls == 0, f"resume pass made {calls} backend calls")

    def _check_metrics(self, eval_dir: Path, checks: Checks):
        truth = self.truth
        n = truth["questions"]
        with open(eval_dir / "answer_scores.csv", encoding="utf-8") as fh:
            checks.rows("answer score", list(csv.DictReader(fh)), lambda row: row["question_id"],
                        truth["em"], lambda row, want: float(row["em"]) == want)
        report = json.loads((eval_dir / "metrics.json").read_text(encoding="utf-8"))
        answer = report["answer"]["aggregates"].get("sg-multi/cot", {})
        em = sum(truth["em"].values())
        checks.expect(answer.get("n") == n and answer.get("em") == em / n,
                      f"answer aggregate {answer}, want em {em}/{n}")
        chain = report["chain"]["aggregates"].get("sg-multi/cot", {})
        checks.expect(chain.get("n") == n and 0 < chain.get("rougeL", 0) <= 1,
                      f"chain aggregate {chain}")
        for column, result in report["correlations"].items():
            checks.expect(result["n"] == n and result["tau"] is not None,
                          f"correlation {column}: {result}")


def _same_outputs(a: Path, b: Path, checks: Checks):
    """Byte-identity of every output file of two passes; caches hold
    timestamps and manifests hold their own paths, so a manifest is compared
    on its question ledger only."""
    for path in sorted(a.rglob("*")):
        rel = path.relative_to(a)
        if path.is_dir() or rel.parts[0] == "cache":
            continue
        other = b / rel
        if not other.is_file():
            checks.expect(False, f"traced run lacks {rel}")
        elif path.name == "manifest.json":
            load = lambda p: json.loads(p.read_text(encoding="utf-8"))["questions"]  # noqa: E731
            checks.expect(load(path) == load(other), f"traced run changed {rel}")
        else:
            checks.expect(path.read_bytes() == other.read_bytes(), f"traced run changed {rel}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(bench: Bench, seconds: float, checks: Checks) -> dict:
    """Untraced passes while they fit in `seconds` (at least one), with
    set-ups before the first pass and after every stage. Medians over passes
    and over set-ups; peak memory up to the end of the first pass."""
    start = perf_counter()
    setups = bench.set_up(at_least=SETUP_BATCH)

    def after_stage(stage_s: float):
        setups.extend(bench.set_up(perf_counter() + SETUP_SHARE * stage_s, SETUP_BATCH))

    results = []
    while True:
        pass_dir = bench.work / f"pass-{len(results)}"
        result = bench.run_pass(pass_dir, after_stage=after_stage)
        bench.check_pass(pass_dir, result, checks)
        shutil.rmtree(pass_dir)
        results.append(result)
        if len(results) == 1:
            # One pass is what a user's run of the pipeline holds. Later passes
            # only raise the high-water mark by allocator fragmentation, and
            # how many fit depends on the machine's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"# pass {len(results)}: " + " ".join(
            f"{stage}={value:.3f}s" for stage, value in result["seconds"].items()))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            break
    n = bench.truth["questions"]
    stage_s = {s: statistics.median(r["seconds"][s] for r in results)
               for s in bench.workload.stages}
    rate = statistics.median(n / sum(r["seconds"].values()) for r in results)
    cpu_rate = statistics.median(n / sum(r["cpu"].values()) for r in results)
    calls = statistics.median(sum(c["requests"] for c in r["calls"].values()) for r in results)
    print(f"# {bench.name}: {len(results)} pass(es) of {n} questions")
    print(f"# set_ups = {len(setups)} count")
    for stage, value in stage_s.items():
        print(f"# {stage}_s = {_fmt(value)} s")
    print(f"# backend_calls = {_fmt(calls)} count")
    print(f"# questions_per_s = {_fmt(rate)} 1/s")
    return {"questions_per_cpu_s": cpu_rate, "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb}


def trace(bench: Bench, checks: Checks, out_dir: Path) -> dict:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    plain_dir, traced_dir = bench.work / "plain", bench.work / "traced"
    start = perf_counter()
    plain = bench.run_pass(plain_dir)
    plain_s = perf_counter() - start
    bench.check_pass(plain_dir, plain, checks)

    records = ([] if bench.workload.backend == "none"  # no prompt names a question
               else bench.sgqa.corpus.load_dataset(bench.inputs / "dataset.json"))
    tracer = spans.Tracer()
    undo = tracer.instrument(bench.sgqa, {r.question: r.id for r in records})
    try:
        start = perf_counter()
        traced = bench.run_pass(traced_dir, tracer)
        traced_s = perf_counter() - start
    finally:
        undo()
    bench.check_pass(traced_dir, traced, checks)
    _same_outputs(plain_dir, traced_dir, checks)

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{bench.name}-seed{bench.seed}.jsonl")
    metrics = spans.layer_metrics(tracer.spans, bench.workload.workers)
    for stage in spans.STAGES:
        metrics[f"pipeline.{stage}.s"] = plain["seconds"].get(stage, 0.0)
    metrics["backend_calls"] = sum(c["requests"] for c in plain["calls"].values())
    # Traced minus untraced wall time of one pass is mostly machine noise, so
    # the overhead is the measured cost of one span times the spans recorded.
    print(f"# untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s")
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_s"] = len(tracer.spans) * spans.span_cost_s()
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / plain_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgqa" / "__init__.py").is_file():
        print(f"sgqa sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed,
                  Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)))
    checks = Checks()
    try:
        bench.generate()
        bench.start_stub()
        if args.trace:
            bench.set_up()
            metrics = trace(bench, checks, ROOT / ".bench_out")
            units = PER_LAYER
        else:
            metrics = measure(bench, args.seconds, checks)
            units = END_TO_END
    finally:
        bench.stop_stub()
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run is still using it
            pass

    for failure in checks.failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"# {name} = {_fmt(metrics[name])} {unit}")
    failed = len(checks.failures)
    print(f"# failed_frac = {failed / max(checks.attempted, 1):.6g} share "
          f"({failed} of {checks.attempted} checked operations)")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
