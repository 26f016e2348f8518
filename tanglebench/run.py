"""Run the tanglekit benchmark.

    python3 tanglebench/run.py --workload verdict --seed 1 --seconds 20 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it holds diagnostics (raw
seconds, K's raw time, failures).  Without ``--workload`` every
workload runs, each in a fresh process, one after another, untraced and
then traced, and a summary is printed and written to tanglebench/out/.

Run it from the root of a source tree: tanglekit is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
import tanglekit  # noqa: E402

if Path(tanglekit.__file__).resolve().parent != ROOT / "src" / "tanglekit":
    sys.exit(f"tanglekit imported from {tanglekit.__file__}, not from {ROOT / 'src'}")

import corpus  # noqa: E402
from reference import Clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5  # set-up runs per run; setup_s is their median
MIN_ROUNDS = 3  # so that every run has at least 45 operations

# The spans subtracted from classify to give classify.detectors_ms.
_NOT_DETECTORS = ("tangles.is_tangled", "tangles.blocking_pairs", "classify.decompose", "classify.decomposition_verify")


class Meter:
    """Normalised time per layer name, counts, and (when tracing) spans."""

    def __init__(self, clock: Clock, spans: list | None, origin: float):
        self.clock = clock
        self.spans = spans
        self.origin = origin
        self.total = 0.0
        self.layer_ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.parent: int | None = None

    def _span(self, name: str, start: float, end: float, ms: float) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": self.parent,
                "name": name,
                "start": round(start - self.origin, 6),
                "end": round(end - self.origin, 6),
                "ms": ms,
            }
        )
        return len(self.spans) - 1

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out, err, raw, norm = self.clock.call(fn, *args, **kwargs)
        self.total += norm
        self.layer_ms[name] += norm * 1e3
        if self.spans is not None:
            self._span(name, start, start + raw, norm * 1e3)
        if err is not None:
            raise err
        return out

    def count(self, name: str, k: int) -> None:
        self.counts[name] += k

    @contextmanager
    def group(self, name: str):
        """A parent span around the calls made inside it."""
        if self.spans is None:
            yield
            return
        outer, before = self.parent, self.total
        index = self._span(name, time.perf_counter(), 0.0, 0.0)
        self.parent = index
        try:
            yield
        finally:
            self.parent = outer
            self.spans[index]["end"] = round(time.perf_counter() - self.origin, 6)
            self.spans[index]["ms"] = (self.total - before) * 1e3


def _rng(seed: int, round_no: int, case) -> random.Random:
    return random.Random(f"{seed}/{round_no}/{case.name}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    with Clock() as clock:
        return _measure(WORKLOADS[name](seed), name, seed, seconds, trace, clock)


def _measure(workload, name: str, seed: int, seconds: float, trace: bool, clock: Clock) -> tuple[dict, dict]:
    origin = time.perf_counter()
    spans: list | None = [] if trace else None

    setup_s, setup_raw, setup_layers = [], [], []
    for _ in range(SETUPS):
        meter = Meter(clock, spans, origin)
        t0 = time.perf_counter()
        with meter.group("setup"):
            cases = workload.setup(meter)
            rels = [meter.call("corpus.relabel", corpus.relabel, c.text, _rng(seed, 0, c)) for c in cases]
        setup_raw.append(time.perf_counter() - t0)
        setup_s.append(meter.total)
        setup_layers.append(meter.layer_ms)

    attempted = failed = 0
    failures: Counter = Counter()
    defects: list[str] = []
    op_norm, op_raw, round_wall, round_raw, round_certs = [], [], [], [], []
    round_layers, round_counts = [], []
    start = time.perf_counter()
    while len(round_wall) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        r = len(round_wall)
        if r:
            rels = [corpus.relabel(c.text, _rng(seed, r, c)) for c in cases]
        meter = Meter(clock, spans, origin)
        wall = raw_wall = 0.0
        certs = 0
        detectors_ms = 0.0
        for case, rel in zip(cases, rels):
            attempted += 1
            if trace:
                before = dict(meter.layer_ms)
                err = None
                with meter.group(f"op {case.name}"):
                    try:
                        out = workload.trace(meter, case, rel)
                    except Exception as exc:  # a failed operation, counted below
                        err = exc
                spent = {k: v - before.get(k, 0.0) for k, v in meter.layer_ms.items()}
                if "classify.classify" in spent:
                    detectors_ms += spent["classify.classify"] - sum(spent.get(k, 0.0) for k in _NOT_DETECTORS)
            else:
                out, err, raw, norm = clock.call(workload.operate, case, rel)
                op_norm.append(norm)
                op_raw.append(raw)
                wall += norm
                raw_wall += raw
            if err is not None:
                failed += 1
                failures[f"{case.name}: {type(err).__name__}: {err}"] += 1
                continue
            bad, ok = workload.check(case, rel, out)
            certs += ok
            defects += [f"round {r}, {case.name}: {d}" for d in bad]
        if round_certs and certs != round_certs[0]:
            defects.append(f"round {r}: {certs} certificates, round 0 had {round_certs[0]}")
        round_wall.append(wall)
        round_raw.append(raw_wall)
        round_certs.append(certs)
        meter.layer_ms["classify.detectors"] = detectors_ms
        round_layers.append(meter.layer_ms)
        round_counts.append(meter.counts)

    known: dict[str, float] = {}
    if trace:
        # per round, like wall_s; the set-up layers per set-up
        for layer in {k for r in round_layers for k in r}:
            known[layer + "_ms"] = statistics.fmean(r.get(layer, 0.0) for r in round_layers)
        for layer in ("families.build_family", "families.t_sum"):
            known[layer + "_ms"] = statistics.median(s.get(layer, 0.0) for s in setup_layers)
        for counter in {k for c in round_counts for k in c}:
            known[counter] = statistics.fmean(c.get(counter, 0) for c in round_counts)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(spans))
        wanted = SPEC["per_layer"]
    else:
        known = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.fmean(round_wall),
            "op_p50_ms": statistics.median(op_norm) * 1e3,
            "op_p90_ms": statistics.quantiles(op_norm, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "certificates": round_certs[0],
        }
        wanted = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": known.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {"correct": not defects, "attempted": attempted, "failed": failed, "metrics": metrics}
    diagnostics = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "cases": len(cases),
        "rounds": len(round_wall),
        "k_median_ms": statistics.median(d for _, d in clock.samples) * 1e3,
        "k_runs": len(clock.samples),
        "raw_setup_s": statistics.median(setup_raw),
        "failures": dict(failures),
        "defects": defects[:20],
    }
    if not trace:
        diagnostics.update(
            raw_wall_s=statistics.fmean(round_raw),
            raw_op_p50_ms=statistics.median(op_raw) * 1e3,
            raw_op_p90_ms=statistics.quantiles(op_raw, n=10, method="inclusive")[8] * 1e3,
        )
    return result, diagnostics


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own fresh process, one after another, first
    untraced (end-to-end metrics), then traced (per-layer metrics)."""
    results = {}
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            key = f"{name} --trace {trace}"
            results[key] = {"diagnostics": json.loads(lines[-2]), "result": json.loads(lines[-1])}
            res = results[key]["result"]
            print(f"{key}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            for metric, v in res["metrics"].items():
                print(f"  {metric:38s} {v['value']:14.4f} {v['unit']}")
            for failure, n in results[key]["diagnostics"]["failures"].items():
                print(f"  failed x{n}: {failure[:150]}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{seed}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"written to {path.relative_to(ROOT)}")
    return 0 if all(r["result"]["correct"] for r in results.values()) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result, diagnostics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
