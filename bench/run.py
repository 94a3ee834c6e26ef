#!/usr/bin/env python3
"""gradsol benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-o5 --seed 1 --seconds 30 --trace 0

Workloads are ``verify-o5``, ``verify-o4-ext`` and ``levelset`` (see
``workloads.py`` and ``METRICS.md``).  The run imports gradsol from
``src/`` of the checkout, sets up, then measures whole passes over the
workload's requests until the next pass would end after ``--seconds``
(with a per-workload minimum number of passes).  Pass ``k`` uses the seed
``SeedSequence([seed, k])``, so the same ``--seed`` gives the same inputs.

Times are reported at a fixed reference machine speed: a short pure-numpy
probe runs before every request (outside the timed region), and each
request's latency is scaled by ``REFERENCE_PROBE_S`` over the median of the
probes around it.  Identical work on the 2-core sandbox where the benchmark
was defined took up to 1.9 times longer in slow spells of the host, with an
IQR of 27-35% of the median between 30-60 s windows; scaling removes most of
that (see METRICS.md).  The raw times are printed next to the scaled ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes on the same inputs and prints the per-layer
metrics of the traced passes, averaged per pass, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
(reports, the extension file, spans) go to ``bench/.work``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_expected, make_workload  # noqa: E402

# Minimum passes per run; they also fix the tail percentile (see tail_percentile).
MIN_PASSES = {"verify-o5": 3, "verify-o4-ext": 3, "levelset": 8}
# Set-ups per run: this process plus fresh interpreters started between the
# first passes, so that one slow spell of the machine does not hit them all.
SETUP_SAMPLES = 4
TAIL_BEYOND = 10           # requests that must lie beyond the tail percentile
# Probe time at the machine speed that reported times are scaled to: the
# probe's median on the defining sandbox.
REFERENCE_PROBE_S = 0.004
PROBE_WINDOW = 5           # probes around a request whose median scales it
SETUP_PROBES = 5           # probes right after a set-up, to scale it

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def per_layer_metrics(check_ids):
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    add("jets.jet_einsum.calls", "count")
    add("jets.jet_einsum.self_s", "s")
    add("jets.jet_einsum.gathered_mb", "MB")
    for order in range(6):
        add(f"jets.jet_einsum.o{order}.calls", "count")
        add(f"jets.jet_einsum.o{order}.self_s", "s")
    add("jets.mul_arrays.calls", "count")
    add("jets.mul_arrays.self_s", "s")
    add("jets.tables_s", "s")
    add("tensors.metric_at_point.calls", "count")
    add("tensors.metric_at_point.self_s", "s")
    add("tensors.metric_at_point.repeat_frac", "ratio")
    for name in ("tensors.invert_metric", "tensors.tensor_norm_sq", "tensors.raise_lower"):
        add(f"{name}.calls", "count")
        add(f"{name}.total_s", "s")
    add("curvature.curvature_pack.calls", "count")
    add("curvature.curvature_pack.self_s", "s")
    add("curvature.covariant_derivative.calls", "count")
    add("curvature.covariant_derivative.total_s", "s")
    add("curvature.covariant_derivative.self_s", "s")
    for name in ("weyl", "cotton", "bach", "d_tensor", "residuals"):
        add(f"conformal.{name}.calls", "count")
        add(f"conformal.{name}.total_s", "s")
    add("verify.run_suite.calls", "count")
    add("verify.run_suite.total_s", "s")
    add("verify.run_suite.self_s", "s")
    add("verify.thm52_status.calls", "count")
    add("verify.thm52_status.total_s", "s")
    for cid in check_ids:
        add(f"verify.check.{cid}.total_s", "s")
    add("solitons.validate_instance.calls", "count")
    add("solitons.validate_instance.total_s", "s")
    add("solitons.sample_points.calls", "count")
    add("solitons.sample_points.total_s", "s")
    add("solitons.sample_points.accept_ratio", "ratio", "higher")
    add("solitons.metric_closure.calls", "count")
    add("solitons.metric_closure.self_s", "s")
    add("solitons.potential_closure.calls", "count")
    add("solitons.potential_closure.self_s", "s")
    add("exprs.eval.calls", "count")
    add("exprs.eval.total_s", "s")
    add("levelset.level_points.calls", "count")
    add("levelset.level_points.self_s", "s")
    add("levelset.level_points.f_evals_per_point", "count")
    add("levelset.prop32_report.calls", "count")
    add("levelset.prop32_report.total_s", "s")
    add("levelset.adapted_frame.total_s", "s")
    add("levelset.second_fundamental_form.total_s", "s")
    add("cli.main.calls", "count")
    add("cli.main.self_s", "s")
    add("process.cpu_s", "s")
    add("process.probe_s", "s")
    add("trace.overhead_frac", "ratio")
    return out


def check_ids_of(expected):
    return list(next(iter(expected["verify-o5"].values()))["checks"])


# ---------------------------------------------------------------------------
# set-up

def import_gradsol():
    """Import gradsol from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gradsol

    if Path(gradsol.__file__).resolve().parent != SRC / "gradsol":
        raise RuntimeError(f"gradsol imported from {gradsol.__file__}, not {SRC}")
    return gradsol


def setup(name, seed):
    """Import, build the instances and jet tables, warm up one request per dimension.

    Returns (workload, setup_s, tables_s).
    """
    t0 = time.perf_counter()
    import_gradsol()
    from gradsol.jets import JetSpace

    WORK_DIR.mkdir(exist_ok=True)
    workload = make_workload(name, WORK_DIR, load_expected())
    spaces = workload.setup()
    t_tables = time.perf_counter()
    for dim, order in sorted(spaces):
        JetSpace.get(dim, order)
    tables_s = time.perf_counter() - t_tables
    workload.warm_up(seed)
    return workload, time.perf_counter() - t0, tables_s


def scaled_setup(name, seed):
    """Set up, then probe the machine; returns (workload, raw_s, scaled_s, tables_s)."""
    workload, raw, tables_s = setup(name, seed)
    probe = Probe()
    speed = statistics.median(probe.seconds() for _ in range(SETUP_PROBES))
    return workload, raw, raw * REFERENCE_PROBE_S / speed, tables_s


def child_setup_seconds(name, seed):
    """Set-up time measured in a fresh interpreter, as a user's process pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["raw_s"], record["setup_s"]


# ---------------------------------------------------------------------------
# environment and machine speed

def env_record():
    import numpy as np

    record = {
        "commit": None,
        "src_sha256": None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": None,
        "openblas_threads": openblas_threads(),
        "cpu": None,
    }
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        record["commit"] = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gradsol").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    record["src_sha256"] = digest.hexdigest()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return record


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Probe:
    """Fixed pure-numpy work shaped like the jet product kernel, a few ms long.

    Timed before each request, it tells a slow machine from a slow program.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20110516)
        self.np = np
        self.data = rng.random((6, 6, 126))
        self.left = rng.integers(0, 126, 2048)
        self.right = rng.integers(0, 126, 2048)
        self.starts = np.arange(0, 2048, 16)

    def seconds(self):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(12):
            p = self.data[..., self.left] * self.data[..., self.right]
            np.add.reduceat(p, self.starts, axis=-1)
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# measurement

def pass_seed(seed, k):
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def one_pass(workload, seed, tracer=None, probe=None):
    """Every request of the workload once, in order; returns the pass record.

    With a probe, the machine is probed before each request.  `wall` and
    `cpu` cover the requests only.
    """
    workload.start_pass()
    outcomes, probes = [], []
    cpu = 0.0
    for label in workload.labels:
        if probe is not None:
            probes.append(probe.seconds())
        c0 = time.process_time()
        outcomes.append(workload.request(label, seed, tracer))
        cpu += time.process_time() - c0
    return {"seed": seed, "wall": sum(o.seconds for o in outcomes), "cpu": cpu,
            "outcomes": outcomes, "probes": probes}


def scale_latencies(passes, final_probe):
    """Each request's latency at reference speed, pass by pass.

    A request is scaled by the median of the PROBE_WINDOW probes, in run
    order, centred on the probe taken just before it.
    """
    probes = [p for rec in passes for p in rec["probes"]] + [final_probe]
    half = PROBE_WINDOW // 2
    scaled, i = [], 0
    for rec in passes:
        row = []
        for out in rec["outcomes"]:
            window = probes[max(0, i - half):i + PROBE_WINDOW - half]
            row.append(out.seconds * REFERENCE_PROBE_S / statistics.median(window))
            i += 1
        scaled.append(row)
    return scaled


def keep_going(done, min_done, busy, seconds):
    """True while another pass (or pair) of average length still fits in `seconds`
    of measuring time `busy`."""
    return done < min_done or busy + busy / done <= seconds


def percentile(values, q):
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(name, requests_per_pass):
    """Highest whole percentile with TAIL_BEYOND requests beyond it in the
    smallest sample a run can have, so every run reports the same one."""
    n = MIN_PASSES[name] * requests_per_pass
    return int(100 * (n - TAIL_BEYOND) // n)


def report_failures(passes):
    attempted = failed = 0
    for k, rec in enumerate(passes):
        for out in rec["outcomes"]:
            attempted += 1
            if out.problems:
                failed += 1
                print(f"FAILED pass {k} {out.label}: {'; '.join(out.problems)}")
    return attempted, failed


def measure(args):
    workload, raw_setup, scaled_setup_s, tables_s = scaled_setup(args.workload, args.seed)
    setups = [(raw_setup, scaled_setup_s)]
    env = env_record()
    probe = Probe()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")

    passes, traced = [], []
    tracer = Tracer() if args.trace else None
    min_done = 1 if tracer is not None else MIN_PASSES[args.workload]
    busy = 0.0
    k = 0
    while True:
        seed = pass_seed(args.seed, k)
        started = time.perf_counter()
        passes.append(one_pass(workload, seed, probe=probe))
        if tracer is not None:
            tracer.install()
            tracer.instrument_instances(workload.instances)
            try:
                traced.append(one_pass(workload, seed, tracer))
            finally:
                tracer.uninstall()
        busy += time.perf_counter() - started
        rec = passes[-1]
        extra = f"  traced {traced[-1]['wall']:.3f} s" if traced else ""
        print(f"pass {k} seed {seed} raw wall {rec['wall']:.3f} s cpu {rec['cpu']:.3f} s "
              f"probe {statistics.median(rec['probes']):.5f} s{extra}")
        k += 1
        if tracer is None:
            due = -(-k * (SETUP_SAMPLES - 1) // min_done)  # spread over the first passes
            while len(setups) < min(1 + due, SETUP_SAMPLES):
                setups.append(child_setup_seconds(args.workload, args.seed))
        if not keep_going(k, min_done, busy, args.seconds):
            break
    scaled = scale_latencies(passes, probe.seconds())

    write_passes(passes, scaled, args)
    attempted, failed = report_failures(passes + traced)
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    if tracer is not None:
        metrics = layer_metrics(tracer, passes, traced, tables_s)
        write_spans(tracer, args)
    else:
        metrics = end_to_end_metrics(args.workload, workload, passes, scaled, setups)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def end_to_end_metrics(name, workload, passes, scaled, setups):
    q = tail_percentile(name, len(workload.labels))
    raw_latencies = [o.seconds for rec in passes for o in rec["outcomes"]]
    latencies = [x for row in scaled for x in row]
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.median(sum(row) for row in scaled),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    raw = {
        "setup_s": statistics.median(r for r, _ in setups),
        "wall_s": statistics.median(rec["wall"] for rec in passes),
        "latency_p50_s": statistics.median(raw_latencies),
        "latency_tail_s": percentile(raw_latencies, q),
    }
    print(f"setup_s: median of {len(setups)} set-ups, raw "
          f"{[round(r, 4) for r, _ in setups]} s")
    print(f"latency_tail_s: p{q} of {len(latencies)} requests in {len(passes)} passes")
    print(f"times are at reference speed (probe {REFERENCE_PROBE_S} s); raw in brackets")
    for metric, unit in END_TO_END:
        note = f"  (raw {raw[metric]:.6g} {unit})" if metric in raw else ""
        print(f"{metric} {values[metric]:.6g} {unit}{note}")
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}


def layer_metrics(tracer, passes, traced, tables_s):
    values = tracer.per_pass_values(len(traced))
    values["jets.tables_s"] = tables_s
    values["process.cpu_s"] = statistics.median(rec["cpu"] for rec in passes)
    values["process.probe_s"] = statistics.median(p for rec in passes for p in rec["probes"])
    values["trace.overhead_frac"] = statistics.median(
        t["wall"] / u["wall"] - 1.0 for u, t in zip(passes, traced))
    print(f"per-layer values are raw times per traced pass, averaged over {len(traced)}; "
          "verify.check.<id> times depend on check order, since the first check "
          "to touch a lazily cached tensor pays for it")
    metrics = {}
    for name, unit, _ in per_layer_metrics(check_ids_of(load_expected())):
        value = values[name]
        note = "  (absent: not exercised by this workload)" if value == 0 else ""
        print(f"{name} {value:.6g} {unit}{note}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_passes(passes, scaled, args):
    """Keep every request latency and probe of the run for later analysis."""
    path = WORK_DIR / f"passes-{args.workload}-{args.seed}-trace{args.trace}.json"
    record = [{"seed": rec["seed"], "wall": rec["wall"], "cpu": rec["cpu"],
               "probes": rec["probes"],
               "latencies": {o.label: o.seconds for o in rec["outcomes"]},
               "scaled": dict(zip((o.label for o in rec["outcomes"]), row))}
              for rec, row in zip(passes, scaled)]
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def write_spans(tracer, args):
    path = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for set-up samples)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "gradsol" / "__init__.py").is_file():
        print(f"error: no gradsol source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        _, raw, scaled, _ = scaled_setup(args.workload, args.seed)
        print(json.dumps({"raw_s": raw, "setup_s": scaled}))
        return 0
    result = measure(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
