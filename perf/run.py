"""The benchmark's one command.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints, as its last line of standard output, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``,
every per-layer metric with ``--trace 1``.  ``--all`` runs the six
workloads one after another (each in a process of its own) and prints
every metric by name with its unit; ``--traced`` is ``--trace 1``.

The human-readable report (environment, sample counts, the budget
line of a traced run, every failure) goes to standard error.
"""

from __future__ import annotations

import sys
from pathlib import Path

# running this file puts perf/ itself on the path; import through the
# repo root instead, so perf/trace.py cannot shadow the standard
# library's ``trace`` for anything the program imports.  (A spawned
# shard worker re-runs this module with the parent's path: idempotent.)
_HERE = Path(__file__).resolve().parent
sys.path[:] = [entry for entry in sys.path if Path(entry) != _HERE]
if str(_HERE.parent) not in sys.path:
    sys.path.insert(0, str(_HERE.parent))

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

from perf import bench  # noqa: E402
from perf.trace import Tracer, budget_line  # noqa: E402

#: set-ups (and measured windows) per untraced run; ``setup_s`` is the
#: median set-up
SETUPS = 3


def load_manifest() -> dict:
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


#: workload name -> (module under perf.workloads, class)
WORKLOADS = {
    "inproc_twig": ("inproc_twig", "InprocTwig"),
    "optimize_heavy": ("optimize_heavy", "OptimizeHeavy"),
    "serve_stream": ("serve", "ServeStream"),
    "serve_mixed": ("serve", "ServeMixed"),
    "durable_rw": ("durable_rw", "DurableRw"),
    "shard_gather": ("shard_gather", "ShardGather"),
}


def workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(f"perf.workloads.{module}"),
                   cls)


def start_heaters() -> list:
    """One ``perf/heater.py`` per CPU this process may run on."""
    return [subprocess.Popen(
        [sys.executable, str(_HERE / "heater.py"), str(cpu),
         str(os.getpid())])
        for cpu in sorted(os.sched_getaffinity(0))]


def stop_heaters(heaters: list) -> None:
    for heater in heaters:
        heater.kill()
    for heater in heaters:
        heater.wait()


def run_workload(name: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    """Set up, measure and tear down one workload; returns the result
    object the contract asks for."""
    units = {metric["name"]: metric["unit"] for metric in load_manifest()[
        "per_layer" if traced else "end_to_end"]}
    declared = list(units)
    bench.require_program()
    bench.OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=bench.OUT))
    speed = bench.Speedometer()
    workload = workload_class(name)(seed, speed, scratch)
    report = bench.environment(seed, seconds)
    report["workload"] = name
    heaters = start_heaters()
    helpers = {heater.pid for heater in heaters}
    rec = bench.Recorder(speed)
    tracer = Tracer(speed) if traced else None
    setups = []
    cpu = peak_rss_mb = 0.0
    try:
        workload.prepare()
        # one measured window per set-up: a process's speed depends by
        # several per cent on where its memory happened to land, so an
        # untraced run pools its operations over SETUPS instances of
        # the program (servers, fleets, databases) instead of one
        windows = 1 if traced else SETUPS
        for _ in range(windows):
            speed.sample()
            start = bench.clock()
            workload.set_up()
            end = bench.clock()
            speed.sample()
            setups.append((end - start) * speed.factor(start, end))
            children_cpu = bench.children_cpu_seconds(helpers)
            layers = workload.run(rec, seconds / windows, tracer)
            # the program's CPU bill at the reference speed: its child
            # processes here, this thread inside operations below
            cpu += (bench.children_cpu_seconds(helpers)
                    - children_cpu) * rec.scale
            peak_rss_mb = max(peak_rss_mb, bench.program_peak_rss_mb(
                workload.in_process, helpers))
            workload.tear_down()
        cpu += rec.cpu_seconds
    finally:
        workload.tear_down()
        stop_heaters(heaters)
        bench.stop_stragglers()
        shutil.rmtree(scratch, ignore_errors=True)
    if not rec.completed:
        raise SystemExit(f"perf: {name}: no operation succeeded: "
                         f"{rec.failures[:5]}")
    if traced:
        tracer.write(bench.OUT / f"trace-{name}.json")
        budget = (getattr(workload, "budget", None)
                  or tracer.budget(workload.root_span))
        print(budget_line(name, workload.root_span, budget,
                          rec.latency_p50_ms()), file=sys.stderr)
        undeclared = sorted(set(layers) - set(declared))
        if undeclared:
            raise SystemExit(f"perf: {name} reported metrics that "
                             f"BENCHMARK.json does not declare: "
                             f"{undeclared}")
        values = {key: float(layers.get(key, 0.0)) for key in declared}
    else:
        # the probes of a traced run are outside rec's window, so CPU
        # per operation is only meaningful untraced
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": rec.completed / rec.elapsed,
            "latency_p50_ms": rec.latency_p50_ms(),
            "cpu_ms_per_op": cpu * 1e3 / rec.completed,
            "peak_rss_mb": peak_rss_mb,
        }
    report.update(samples=rec.completed, setups=setups,
                  reference_speed_scale=rec.scale,
                  wall_latency_p50_ms=rec.latency_p50_ms(wall=True),
                  kinds=len(rec.latencies_ms()),
                  failures=rec.failures[:20])
    print(json.dumps(report), file=sys.stderr)
    return {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in declared},
    }


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in its own process; prints each metric."""
    status = 0
    for entry in load_manifest()["workloads"]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", entry["name"],
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if traced else "0"],
            stdout=subprocess.PIPE, text=True)
        if done.returncode:
            print(f"{entry['name']}: exited with {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{entry['name']}: correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:40s} {metric['value']:16.6f} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


def _interrupt(signum, frame) -> None:
    """SIGTERM unwinds like Ctrl-C, so every ``finally`` still stops
    its child processes and removes its scratch directory."""
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    arguments = parser.parse_args(argv)
    manifest = load_manifest()
    seconds = arguments.seconds or float(manifest["run_seconds"])
    traced = bool(arguments.trace or arguments.traced)
    if arguments.all:
        return run_all(arguments.seed, seconds, traced)
    names = [entry["name"] for entry in manifest["workloads"]]
    if arguments.workload not in names:
        parser.error(f"unknown workload {arguments.workload!r}; "
                     f"BENCHMARK.json declares {names}")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashes are salted per process, which moves dict and
        # set layouts, and with them timings by a few per cent between
        # two runs of identical work; the server child and the shard
        # workers inherit the setting
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    signal.signal(signal.SIGTERM, _interrupt)
    result = run_workload(arguments.workload, arguments.seed, seconds,
                          traced)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
