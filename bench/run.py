"""Benchmark of the freycheck command-line tool.

One run:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it starts ``python -m freycheck ...`` for each call of
the workload in a closed loop (one client, one invocation at a time,
``--workers 1``), repeats the workload's pass until S seconds are used,
checks every output outside the timed region and prints the end-to-end
metrics.  With ``--trace 1`` it runs the same calls in this process,
alternating untraced and traced passes, and prints the per-layer metrics
(see ``spans.py``).  The last line of output is one JSON object.

Every workload, several seeds, one result file:

    python3 bench/run.py --all [--runs K] [--seed N] [--out FILE]

Two result files side by side:

    python3 bench/run.py --compare BASE.json NEW.json

Metric names, units and bounds come from BENCHMARK.json at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

#: Seed whose stdout digests are pinned in digests.json.
DEFAULT_SEED = 0
PROBE_INTERVAL = 1.0
MIN_PROBES = 11
REFUSAL = "factorization bound exceeded"


@dataclass
class Result:
    code: int
    stdout: bytes
    stderr: str
    seconds: float
    max_rss_kb: int = 0


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FREYCHECK_FACTOR_BOUND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


ENV = _child_env()


def run_python(argv: Sequence[str]) -> Result:
    """One fresh interpreter, timed from spawn to exit; max RSS of that child."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: List[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Result(proc.returncode, out, err[0].decode(errors="replace"), elapsed, usage.ru_maxrss)


def run_cli(args: Sequence[str]) -> Result:
    return run_python(["-m", "freycheck", *args])


def run_in_process(args: Sequence[str]) -> Result:
    import freycheck.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = freycheck.cli.main(list(args))
    return Result(code, out.getvalue().encode(), err.getvalue(), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# judging outputs


def load_digests() -> Dict[str, List]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class Judge:
    """Verdict per call: "ok", "refused" (documented exit 2) or "failed"."""

    def __init__(self, pinned: Dict[str, List]) -> None:
        self.pinned = pinned
        self._cache: Dict[tuple, str] = {}
        self.failures: List[str] = []

    def __call__(self, call: workloads.Call, res: Result) -> str:
        digest = hashlib.sha256(res.stdout).hexdigest()
        key = (call.args, res.code, digest, REFUSAL in res.stderr)
        if key not in self._cache:
            self._cache[key] = self._verdict(call, res, digest)
        verdict = self._cache[key]
        if verdict not in ("ok", "refused"):
            self.failures.append("%s: %s" % (" ".join(call.args)[:120], verdict))
            return "failed"
        return verdict

    def _verdict(self, call: workloads.Call, res: Result, digest: str) -> str:
        pin = self.pinned.get(" ".join(call.args))
        # A pin is enforced when the exit code matches it: a call that used
        # to be refused and now succeeds is judged by its checks alone.
        if pin is not None and pin[0] == res.code and pin[1] != digest:
            return "stdout differs from the pinned digest"
        if res.code == 2 and call.may_refuse and REFUSAL in res.stderr:
            return "refused"
        if res.code != 0:
            return "exit %d: %s" % (res.code, res.stderr.strip()[-200:])
        try:
            call.check(res.stdout.decode())
        except checks.CheckError as exc:
            return str(exc)
        except Exception as exc:  # unparsable output is a wrong output
            return "unreadable output (%s: %s)" % (type(exc).__name__, exc)
        return "ok"


# ---------------------------------------------------------------------------
# statistics


def percentile(values: Sequence[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class StartupProbe:
    """Wall times of one fresh-interpreter command, sampled at most once a
    second between the workload's calls, so that the median covers the
    whole run rather than one moment of it."""

    def __init__(self, argv: Sequence[str], expect: bytes = b"") -> None:
        self.argv, self.expect = list(argv), expect
        self.times: List[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        res = run_python(self.argv)
        if res.code != 0 or not res.stdout.startswith(self.expect):
            raise SystemExit("start-up probe %s failed: %s" % (" ".join(self.argv), res.stderr[-300:]))
        self.times.append(res.seconds)
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= PROBE_INTERVAL:
            self.sample()

    def median(self) -> Tuple[float, int]:
        while len(self.times) < MIN_PROBES:
            self.sample()
        return statistics.median(self.times), len(self.times)


# ---------------------------------------------------------------------------
# one run


def timed_run(work: workloads.Workload, seconds: float, judge: Judge) -> Tuple[Dict[str, Tuple[float, int]], List[str]]:
    # setup_s: ``freycheck --version`` covers start-up, the import of
    # freycheck.cli and building the parser.
    setup = StartupProbe(["-m", "freycheck", "--version"], b"freycheck ")
    run_cli(["--version"])  # untimed warm-up of the file cache
    pass_times: List[float] = []
    results: List[Tuple[workloads.Call, Result]] = []
    start = time.perf_counter()
    while True:
        pass_seconds = 0.0
        for call in work.calls:
            res = run_cli(call.args)
            results.append((call, res))
            pass_seconds += res.seconds
            setup.maybe_sample()
        pass_times.append(pass_seconds)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_times) > seconds and len(results) >= work.min_calls:
            break
    verdicts = [judge(call, res) for call, res in results]
    call_ms = [res.seconds * 1000 for _, res in results]
    passes, calls = len(pass_times), len(results)
    metrics = {
        "setup_s": setup.median(),
        "wall_s": (statistics.median(pass_times), passes),
        "calls_per_s": (calls / sum(pass_times), calls),
        "call_p50_ms": (statistics.median(call_ms), calls),
        "call_p90_ms": (percentile(call_ms, 90), calls),
        "peak_rss_mb": (max(res.max_rss_kb for _, res in results) / 1024, calls),
    }
    # Report only: the rate of each kernel's own unit of work, over the
    # calls that do it (primes_per_s, ells_per_s, pairs_per_s).
    for unit in sorted({call.work[0] for call in work.calls} - {"calls"}):
        done = [(call.work[1], res.seconds) for call, res in results if call.work[0] == unit]
        metrics[unit + "_per_s"] = (sum(w for w, _ in done) / sum(t for _, t in done), len(done))
    return metrics, verdicts


def traced_run(work: workloads.Workload, seconds: float, judge: Judge) -> Tuple[Dict[str, Tuple[float, int]], List[str]]:
    interp = StartupProbe(["-c", "pass"])
    imports = StartupProbe(["-c", "import freycheck.cli"])
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("FREYCHECK_FACTOR_BOUND", None)
    plain_times: List[float] = []
    traced_times: List[float] = []
    layer_samples: List[Dict[str, float]] = []
    verdicts: List[str] = []
    traced_refused = traced_calls = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for call in work.calls:
            verdicts.append(judge(call, run_in_process(call.args)))
        plain_times.append(time.perf_counter() - pass_start)
        interp.maybe_sample()
        imports.maybe_sample()

        tracer = spans.Tracer()
        tracer.install()
        try:
            pass_start = time.perf_counter()
            results = []
            for i, call in enumerate(work.calls):
                tracer.current_invocation = i
                results.append(run_in_process(call.args))
            traced_times.append(time.perf_counter() - pass_start)
        finally:
            tracer.uninstall()
        for call, res in zip(work.calls, results):
            verdict = judge(call, res)
            verdicts.append(verdict)
            traced_refused += verdict == "refused"
        traced_calls += len(results)
        layer_samples.append(tracer.layer_metrics())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain_times) + statistics.median(traced_times) > seconds:
            break
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / ("spans-%s.csv" % work.name)))
    passes = len(traced_times)
    start_s, n_start = interp.median()
    import_s, n_import = imports.median()
    metrics = {
        "interp.start_s": (start_s, n_start),
        "cli.import_s": (import_s - start_s, n_import),
        **{name: (value, passes) for name, value in spans.mean_metrics(layer_samples).items()},
        "cli.refused_ratio": (traced_refused / traced_calls, traced_calls),
        "trace.overhead_ratio": (statistics.median(traced_times) / statistics.median(plain_times), passes),
    }
    return metrics, verdicts


def unit_of(name: str, declared: Dict[str, str]) -> str:
    if name in declared:
        return declared[name]
    if name.endswith((".calls", ".spans", ".scalings")):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "ratio"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment() -> Dict[str, object]:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_sha": git_sha()}


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def single_run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (ROOT / "src" / "freycheck" / "cli.py").is_file():
        sys.stderr.write("bench: no freycheck sources under %s\n" % (ROOT / "src"))
        return 2
    spec = load_spec()
    declared = spec["per_layer" if traced else "end_to_end"]
    work = workloads.WORKLOADS[workload](seed)
    judge = Judge(load_digests())
    metrics, verdicts = (traced_run if traced else timed_run)(work, seconds, judge)
    env = environment()
    print("freycheck bench: workload %s, seed %d, %g s, trace %d" % (workload, seed, seconds, traced))
    print("python %(python)s, nproc %(nproc)s, %(machine)s, git %(git_sha)s" % env)
    print("%d freycheck calls per pass" % len(work.calls))
    units = {m["name"]: m["unit"] for m in declared}
    for name, (value, n) in metrics.items():
        print("  %-44s %14.6g %-6s n=%d" % (name, value, unit_of(name, units), n))
    calls, failed = len(verdicts), verdicts.count("failed")
    for name in ("failed", "refused"):
        count = verdicts.count(name)
        print("  %-44s %14.6g %-6s %d of %d calls" % (name + "_ratio", count / calls, "ratio", count, calls))
    for failure in judge.failures[:10]:
        print("  FAILED " + failure)
    result = {
        "correct": failed == 0,
        "attempted": calls,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# all workloads, result files, comparison


def _quartile_share(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_all(names: Sequence[str], seed: int, runs: int, seconds: float, out: Path) -> int:
    doc = {"environment": environment(), "seconds": seconds, "seed": seed, "runs": runs,
           "workloads": {}}
    status = 0
    for name in names:
        entry: Dict = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        for traced, count in ((0, runs), (1, 1)):
            for i in range(count):
                argv = [str(Path(__file__)), "--workload", name, "--seed", str(seed + i),
                        "--seconds", str(seconds), "--trace", str(traced)]
                proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    return proc.returncode
                last = json.loads(proc.stdout.splitlines()[-1])
                if not last["correct"]:
                    sys.stderr.write(proc.stdout)
                    status = 1
                group = entry["per_layer" if traced else "end_to_end"]
                for metric, m in last["metrics"].items():
                    group.setdefault(metric, {"unit": m["unit"], "values": []})["values"].append(m["value"])
                entry["attempted"] += last["attempted"]
                entry["failed"] += last["failed"]
        doc["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    env = doc["environment"]
    print("python %(python)s, nproc %(nproc)s, %(machine)s, git %(git_sha)s" % env)
    for name, entry in doc["workloads"].items():
        print("%s  (failed %d of %d calls)" % (name, entry["failed"], entry["attempted"]))
        for group in ("end_to_end", "per_layer"):
            for metric, m in entry[group].items():
                print("  %-44s %14.6g %-6s n=%d  quartile spread %.1f%%" % (
                    metric, statistics.median(m["values"]), m["unit"], len(m["values"]),
                    100 * _quartile_share(m["values"])))
    print("wrote %s" % out)
    return status


def compare(base_path: Path, new_path: Path) -> int:
    spec = load_spec()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, new = (json.loads(p.read_text()) for p in (base_path, new_path))
    print("base %s (git %s)  new %s (git %s)" % (
        base_path, base["environment"]["git_sha"], new_path, new["environment"]["git_sha"]))
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        print(name)
        for group in ("end_to_end", "per_layer"):
            b_metrics, n_metrics = base["workloads"][name][group], new["workloads"][name][group]
            for metric, b in b_metrics.items():
                if metric not in n_metrics:
                    continue
                b_med = statistics.median(b["values"])
                n_values = n_metrics[metric]["values"]
                if not b_med:
                    print("  %-44s %10s  base 0 %s, new %.6g" % (metric, "-", b["unit"], statistics.median(n_values)))
                    continue
                ratio = statistics.median(n_values) / b_med
                verdict = ""
                if metric in bounds:
                    bound, better = bounds[metric]
                    worse = ratio - 1 if better == "lower" else 1 - ratio
                    sign = 1 if better == "lower" else -1
                    if _quartile_share(b["values"]) > bound:
                        every_run_better = sign * max(n_values) < sign * min(b["values"])
                        verdict = "better in every run" if every_run_better else "unresolved"
                    elif worse > bound:
                        verdict = "regressed"
                    else:
                        verdict = "within bound %.2f" % bound
                print("  %-44s %8.4f x  of base %.6g %s  %s" % (metric, ratio, b_med, b["unit"], verdict))
    return 0


def pin_digests() -> int:
    """Record stdout digests of every call at the default seed from the
    current code.  Re-pin only when a change of output is intended."""
    judge = Judge({})
    pins = {}
    for make in workloads.WORKLOADS.values():
        for call in make(DEFAULT_SEED).calls:
            res = run_cli(call.args)
            verdict = judge(call, res)
            if verdict == "failed":
                sys.stderr.write("\n".join(judge.failures) + "\n")
                return 1
            pins[" ".join(call.args)] = [res.code, hashlib.sha256(res.stdout).hexdigest()]
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print("pinned %d calls in %s" % (len(pins), DIGESTS))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, write a result file")
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload with --all")
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--pin", action="store_true", help="re-pin stdout digests at the default seed")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.pin:
        return pin_digests()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.all:
        return run_all(list(workloads.WORKLOADS), args.seed, args.runs, seconds, args.out)
    if args.workload is None:
        parser.error("--workload, --all, --compare or --pin is required")
    return single_run(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
