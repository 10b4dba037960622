"""One benchmark run: set up a workload's instance files from a seed, run its
``blockcache run`` jobs in process through ``blockcache.cli.main`` until the
time budget is spent, check every output, and compute the metrics.

A pass runs every job of the workload once, one after another.  Untraced
passes give the end-to-end times; traced passes (``trace=True`` alternates
them with untraced ones) give per-function counts and times from
``tracing.Tracer``.

Times are scaled to a reference host speed by ``speed.timed``.  A job's
time is the median of its scaled times over the untraced passes.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import resource
import statistics
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from blockcache import cli
from blockcache.instance import Instance

import checks
import speed
from tracing import Tracer

SPEC = json.loads((Path(__file__).parent / "spec.json").read_text())
LAYERS = list(SPEC["layers"])

# end-to-end time of each CLI algorithm is reported under these names
ALG_METRIC = {
    "det": "det_s",
    "frac": "frac_s",
    "frac-round": "round_s",
    "bicriteria-fetch": "bicriteria_s",
    "bicriteria-evict": "bicriteria_s",
    "opt": "opt_s",
}
ALG_METRICS = tuple(dict.fromkeys(ALG_METRIC.values()))
SETUP_REPEATS = 5
MIN_PASSES = 2
VERIFY = "cli.cmd_verify"


def instance_seed(seed: int, workload: str, name: str, copy: int) -> int:
    return random.Random(f"{workload}/{name}/{copy}/{seed}").randrange(2**31)


def call_cli(argv: list[str]):
    """(exit code, or None if it raised; captured output) of one CLI call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        try:
            rc = cli.main(argv)
        except Exception:  # a crashing job is a failed job, not a failed run
            rc = None
            out.write(traceback.format_exc())
    return rc, out.getvalue()


@dataclass
class Job:
    instance: str
    args: list[str]
    path: str
    prefix: str

    @property
    def alg(self) -> str:
        return self.args[1]

    @property
    def model(self) -> str:
        if self.alg == "opt":
            return self.args[self.args.index("--model") + 1]
        return "fetch" if self.alg == "bicriteria-fetch" else "evict"

    def argv(self) -> list[str]:
        return ["run", "--instance", self.path, *self.args, "-o", self.prefix]

    def verify_argv(self, inst: Instance) -> list[str]:
        if self.alg == "frac":
            return ["verify", "--instance", self.path,
                    "--increments", self.prefix + ".increments.jsonl"]
        return ["verify", "--instance", self.path,
                "--trace", self.prefix + ".trace.jsonl",
                "--capacity", str(checks.trace_capacity(self.alg, inst))]


@dataclass
class Pass:
    traced: bool
    times: list[speed.Timed]  # one per job
    digest: str
    stats: dict | None = None

    @property
    def scaled(self) -> list[float]:
        return [t.scaled for t in self.times]


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    digest: str
    report: list[str]


def gen_commands(name: str, workload: dict, seed: int, workdir: str):
    """(instance stem, ``blockcache gen`` argv, relabelling seed or None) for
    every instance file.

    By default the generator seed of a random instance is drawn from the
    workload seed.  An instance with ``"seed": "relabel"`` is generated from
    a fixed generator seed (its copy number) and the workload seed renames
    its pages and blocks instead, for workloads whose cost varies too much
    between random draws to average out in one run.
    """
    out = []
    for spec in workload["instances"]:
        for copy in range(spec["copies"]):
            stem = f"{spec['name']}{copy}"
            drawn = instance_seed(seed, name, spec["name"], copy)
            relabel = spec.get("seed") == "relabel"
            argv = ["gen", *spec["gen"]]
            if spec["gen"][0] == "random":
                argv += ["--seed", str(copy if relabel else drawn)]
            argv += ["-o", os.path.join(workdir, stem + ".json")]
            out.append((stem, argv, drawn if relabel else None))
    return out


def relabel(path: str, seed: int) -> None:
    """Rewrite an instance file with its pages and blocks renamed at random.

    The renamed instance is isomorphic to the original, so an exact oracle
    does the same work on it; the online algorithms may break ties
    differently.
    """
    rng = random.Random(seed)
    with open(path) as fh:
        doc = json.load(fh)
    names = list(range(1, doc["n"] + 1))
    rng.shuffle(names)
    page = dict(zip(range(1, doc["n"] + 1), names))
    order = list(range(len(doc["blocks"])))
    rng.shuffle(order)
    doc["blocks"] = [sorted(page[p] for p in doc["blocks"][b]) for b in order]
    doc["costs"] = [doc["costs"][b] for b in order]
    doc["requests"] = [page[p] for p in doc["requests"]]
    doc["initial_cache"] = sorted(page[p] for p in doc["initial_cache"])
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_instances(gens) -> None:
    for _stem, argv, relabel_seed in gens:
        rc, text = call_cli(argv)
        if rc != 0:
            raise RuntimeError(f"blockcache {' '.join(argv)} failed: {text}")
        if relabel_seed is not None:
            relabel(argv[-1], relabel_seed)


def setup(gens) -> float:
    """Median scaled time to generate and write every instance file."""
    return statistics.median(
        speed.timed(write_instances, gens).scaled for _ in range(SETUP_REPEATS)
    )


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, name: str, workload: dict, seed: int, workdir: str):
        self.name = name
        self.gens = gen_commands(name, workload, seed, workdir)
        self.jobs = [
            Job(stem, list(args), argv[-1], os.path.join(workdir, f"{stem}.{i}"))
            for stem, argv, _relabel in self.gens
            for i, args in enumerate(workload["jobs"])
        ]
        self.instances: dict[str, Instance] = {}
        self.passes: list[Pass] = []
        self.check_cache: dict[str, tuple[list[str], bool]] = {}
        self.failures: list[str] = []
        self.self_check: list[str] = []
        self.missing: set[str] = set()
        self.attempted = self.failed = 0
        self.rounding_rejects = 0
        self.ratios: dict[str, list[float]] = {"det": [], "frac": []}
        self.peak_rss_mb = 0.0

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self.failures.append(msg)

    def run_pass(self, traced: bool) -> None:
        tracer = Tracer(LAYERS) if traced else None
        times, rcs = [], []
        with tracer or nullcontext():
            for job in self.jobs:
                checks.remove_artifacts(job.prefix)
                gc.collect()
                t = speed.timed(call_cli, job.argv())
                times.append(t)
                rcs.append(t.result[0])
        if not self.passes:
            # before any check runs, so only the program's memory counts
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        records, rounding = self.check(rcs, first=not self.passes)
        if tracer:
            self.missing.update(tracer.missing)
            # verify is timed on its own, outside every other layer's counts
            with Tracer([VERIFY]) as verify_tracer:
                self.verify(rcs, rounding)
            tracer.stats[VERIFY] = verify_tracer.stats[VERIFY]
        self.passes.append(
            Pass(traced, times, checks.digest(records), tracer.stats if tracer else None)
        )

    def verify(self, rcs, rounding) -> None:
        """Run ``blockcache verify`` on every job's trace or increment log.

        A trace that ``check_job`` found correct but rounded past what
        ``PolicyTrace.validate`` accepts must be rejected for its cost alone.
        """
        for job, rc, rounded in zip(self.jobs, rcs, rounding):
            if rc != 0:
                continue
            self.attempted += 1
            argv = job.verify_argv(self.instances[job.path])
            vrc, out = call_cli(argv)
            if vrc != 0 and not (rounded and "cost mismatch" in out):
                self._fail(f"blockcache {' '.join(argv)}: {out.strip()}")

    def check(self, rcs, first: bool) -> tuple[list, list[bool]]:
        """Output records of the pass, and per job whether its saved trace is
        rejected by ``PolicyTrace.validate`` only for rounding."""
        records, rounding = [], []
        for job, rc in zip(self.jobs, rcs):
            self.attempted += 1
            fp = checks.fingerprint(job.prefix, rc)
            if fp not in self.check_cache:
                try:
                    self.check_cache[fp] = checks.check_job(
                        job.alg, job.model, self.instances[job.path], job.prefix, rc
                    )
                except Exception:  # a crashing check is a failed check
                    self.check_cache[fp] = (
                        [traceback.format_exc().strip().splitlines()[-1]], False
                    )
            problems, rounded = self.check_cache[fp]
            if problems:
                self._fail(f"{job.instance} {' '.join(job.args)}: {'; '.join(problems)}")
            rounding.append(rounded)
            records.append([job.instance, job.args, checks.job_record(job.prefix, rc)])
            if first:
                self.rounding_rejects += rounded
                ratio = checks.quality_ratio(job.prefix) if job.alg in self.ratios else None
                if ratio is not None:
                    self.ratios[job.alg].append(ratio)
        return records, rounding


def layer_metrics(run: Run) -> tuple[dict, list[str]]:
    """Per-function metrics from the traced passes, plus the self-checks
    that every layer the workload should exercise was called."""
    traced = [p for p in run.passes if p.traced]
    plain = [p for p in run.passes if not p.traced]
    first = traced[0].stats
    problems = [f"{n} not found" for n in sorted(run.missing)]
    if any(p.stats[n]["calls"] != first[n]["calls"] for p in traced for n in LAYERS):
        problems.append("call counts differ between traced passes")
    for n, layer in SPEC["layers"].items():
        calls = first[n]["calls"]
        if run.name in layer["moves"] and calls == 0:
            problems.append(f"{n} recorded no call")
        if run.name in layer.get("zero_on", ()) and calls != 0:
            problems.append(f"{n} recorded {calls} calls, expected 0")

    metrics = {}
    for n in LAYERS:
        metrics[f"{n}.calls"] = (first[n]["calls"], "count")
        for key in ("total_s", "self_s"):
            metrics[f"{n}.{key}"] = (statistics.median(p.stats[n][key] for p in traced), "s")

    def share(n, label):
        return first[n][label] / first[n]["calls"] if first[n]["calls"] else 0.0

    mvc, event = "submodular.most_violated_constraint", "frac_online.solve_event"
    metrics[f"{mvc}.violated_share"] = (share(mvc, "violated"), "ratio")
    metrics[f"{event}.tightened_share"] = (share(event, "tightened"), "ratio")
    metrics["oracle.opt_eviction.intractable"] = (first["oracle.opt_eviction"]["intractable"], "count")
    metrics["instance.PolicyTrace.save.rounding_rejects"] = (run.rounding_rejects, "count")
    metrics["trace.overhead"] = (
        statistics.median(sum(p.scaled) for p in traced)
        / statistics.median(sum(p.scaled) for p in plain),
        "ratio",
    )
    return metrics, problems


def layer_report(metrics: dict) -> list[str]:
    """The twelve traced functions with the largest self time."""
    names = sorted(LAYERS, key=lambda n: -metrics[f"{n}.self_s"][0])
    lines = [f"  {'self_s':>10} {'total_s':>10} {'calls':>10}  traced function"]
    for n in names[:12]:
        lines.append(
            f"  {metrics[n + '.self_s'][0]:10.4f} {metrics[n + '.total_s'][0]:10.4f}"
            f" {metrics[n + '.calls'][0]:10d}  {n}"
        )
    return lines


def run_workload(
    name: str,
    workload: dict,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    import_s: float = 0.0,
) -> Outcome:
    run = Run(name, workload, seed, workdir)
    setup_s = import_s + setup(run.gens)
    run.instances = {job.path: Instance.load(job.path) for job in run.jobs}

    # stop before a pass that would end past the budget, but only after two
    # passes: two untraced ones, so that every job time is the median of at
    # least two, or one untraced and one traced
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        run.run_pass(traced=trace and len(run.passes) % 2 == 1)
        now = perf_counter()
        if len(run.passes) >= MIN_PASSES and (now - start) + (now - pass_start) > seconds:
            break

    if len({p.digest for p in run.passes}) != 1:
        run.self_check.append("outputs differ between passes")
    plain = [p for p in run.passes if not p.traced]
    job_s = [statistics.median(p.scaled[j] for p in plain) for j in range(len(run.jobs))]
    alg_s = dict.fromkeys(ALG_METRICS, 0.0)
    for job, t in zip(run.jobs, job_s):
        alg_s[ALG_METRIC[job.alg]] += t
    # the mean, not the maximum, so that one outlying instance of a seed
    # does not decide the run; the maxima are in the report
    ratios = run.ratios["det"] + run.ratios["frac"]
    metrics = {
        "wall_s": (sum(job_s), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "cost_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
    }

    report = [
        f"{name} seed={seed}: {len(plain)} untraced and {len(run.passes) - len(plain)}"
        f" traced passes of {len(run.jobs)} jobs"
    ]
    shown = dict(metrics)
    shown["raw_wall_s"] = (
        sum(statistics.median(p.times[j].seconds for p in plain) for j in range(len(run.jobs))),
        "s",
    )
    shown["speed_loop_s"] = (
        statistics.median(t.loop_s for p in run.passes for t in p.times), "s"
    )
    shown.update((m, (t, "s")) for m, t in alg_s.items() if t)
    shown.update(
        (f"{alg}_ratio", (max(rs), "ratio")) for alg, rs in run.ratios.items() if rs
    )
    shown["fail_share"] = (run.failed / run.attempted, "share")
    report += [f"  {k:<14} {v:.6g} {u}" for k, (v, u) in shown.items()]
    report.append(f"  digest         {run.passes[0].digest}")

    if trace:
        layer, problems = layer_metrics(run)
        run.self_check += problems
        metrics = {m: (t, "s") for m, t in alg_s.items()}
        metrics.update(layer)
        report += layer_report(layer)

    if run.rounding_rejects:
        report.append(
            "  KNOWN DEFECT PolicyTrace.validate (and blockcache verify --trace)"
            f" rejects {run.rounding_rejects} saved trace(s) that are correct to the"
            " 12 significant digits PolicyTrace.save keeps: it wants 1e-9 absolute"
        )
    report += [f"  FAIL {msg}" for msg in run.failures[:20]]
    report += [f"  SELF-CHECK {msg}" for msg in run.self_check]
    return Outcome(
        correct=run.failed == 0 and not run.self_check,
        attempted=run.attempted,
        failed=run.failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        digest=run.passes[0].digest,
        report=report,
    )
