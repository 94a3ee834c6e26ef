"""Compare the behavioural contract of this tree with that of another revision.

    python tools/contract.py --against REV

REV is exported with ``git archive`` into a temporary directory, which is
removed afterwards.  Each tree computes the contract outputs in fresh
processes with ``OPENBLAS_NUM_THREADS=1``, one process per group:

* ``verify-o5``, ``verify-o4``, ``verify-o4-ext``: the report JSON, the text
  and the exit code of ``gradsol verify --instance all --points 20 --seed 7``
  at order 5, at order 4, and at order 4 with the benchmark's two
  expression-form extensions;
* ``dim6``: the report JSON, the text and the exit code of ``gradsol verify
  --order 4 --points 20 --seed 7 --extensions`` of flat R^6 and S^5 x R, two
  instances whose specs the tool writes: at dimension 6
  ``solitons.block_rule`` keeps the order-3 and order-4 layers of Riemann's
  size per point;
* ``points40``: the report JSON, the text and the exit code of ``gradsol
  verify --order 5 --points 40 --seed 7`` of ``s2xr3`` and ``sphere-s4``,
  whose samples span several blocks, and ``jet_einsum`` calls several row
  chunks;
* ``prop32``: the ``prop32_report`` repr (and its fields) of each level-set
  instance at seeds 11, 61 and 62 with 12 and 16 points, at its base
  point's level;
* ``catalog``: ``gradsol catalog validate`` of every built-in;
* ``tensor``: ``gradsol tensor`` of every built-in at its base point, for
  each ``--what``.

The comparison prints, for each output, whether it is byte-identical; for a
``prop32`` report that is not, the report fields that moved and the largest
|Δ| of each.  Then it lists the verify ``max_residual`` values that moved,
the ``MOVED_SHOWN`` largest |Δ| first, and sums every moved value up, one
line per (output, check id): how many moved, the largest |Δ|, and the
largest |Δ| over the entry's ``tolerance`` (its new report's, else its
old), largest ratio first.  Last it lists the ``argmax_point`` values that
moved.  The exit status is 1 on any change of a check status or an exit
code, else 0.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERIFY = {"verify-o5": ["--order", "5"], "verify-o4": ["--order", "4"],
          "verify-o4-ext": ["--order", "4", "--extensions"]}
GROUPS = (*VERIFY, "dim6", "points40", "prop32", "catalog", "tensor")
POINTS40 = ("s2xr3", "sphere-s4")
_S5 = "(2/(1 + (x1*x1 + x2*x2 + x3*x3 + x4*x4 + x5*x5)))^2*8"  # round S^5, radius sqrt(8)
DIM6 = [
    {"name": "flat-r6", "n": 6, "rho": 0.5, "kind": "shrinking",
     "metric": [["1" if i == j else "0" for j in range(6)] for i in range(6)],
     "potential": "(x1*x1 + x2*x2 + x3*x3 + x4*x4 + x5*x5 + x6*x6)/4",
     "domain": {"box": [[-3, 3]] * 6}, "base_point": [2, 0, 0, 0, 0, 0]},
    {"name": "cylinder-s5xr", "n": 6, "rho": 0.5, "kind": "shrinking",
     "metric": [[(_S5 if i < 5 else "1") if i == j else "0" for j in range(6)]
                for i in range(6)],
     "potential": "x6*x6/4 + 2.5",
     "domain": {"box": [[-1.2, 1.2]] * 5 + [[-4, 4]]}, "base_point": [0, 0, 0, 0, 0, 2]},
]
LEVELSET_INSTANCES = [
    "gaussian-r3", "gaussian-r4", "gaussian-r5", "cylinder-s2xr", "cylinder-s3xr",
    "cylinder-s4xr", "einstein-cylinder-s2xs2xr", "warped-cylinder", "steady-flat-r4",
    "expanding-gaussian-r4",
]
TENSOR_WHAT = ("weyl", "cotton", "bach", "d", "ricci", "scalar")
MOVED_SHOWN = 10


def _cli(argv):
    """Output of one in-process ``gradsol`` command: stdout, stderr and exit code."""
    from gradsol.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return {"text": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _verify(argv, report, points=20):
    """Output of one ``gradsol verify`` command that writes `report`, the report included."""
    out = _cli(["verify", "--points", str(points), "--seed", "7", "--report", str(report)] + argv)
    out["report"] = report.read_text(encoding="utf-8") if report.exists() else None
    out["text"] = out["text"].replace(str(report), "REPORT")
    return out


def emit(group, extensions, work):
    """The outputs of one group in this process, by name."""
    from gradsol import levelset, solitons
    from gradsol.jets import JetSpace

    names = [spec["name"] for spec in solitons.BUILTIN_SPECS]
    if group in VERIFY:
        argv = ["--instance", "all"] + VERIFY[group]
        argv += [extensions] if group == "verify-o4-ext" else []
        return {group: _verify(argv, Path(work) / f"{group}.json")}
    if group == "dim6":
        specs = Path(work) / "dim6.json"
        specs.write_text(json.dumps({"instances": DIM6}, indent=1) + "\n", encoding="utf-8")
        return {f"dim6 {spec['name']}": _verify(
                    ["--instance", spec["name"], "--order", "4", "--extensions", str(specs)],
                    Path(work) / f"dim6-{spec['name']}.json")
                for spec in DIM6}
    if group == "points40":
        return {f"points40 {name}": _verify(["--instance", name, "--order", "5"],
                                            Path(work) / f"points40-{name}.json", points=40)
                for name in POINTS40}
    if group == "catalog":
        return {f"catalog {name}": _cli(["catalog", "validate", name]) for name in names}
    if group == "tensor":
        outputs = {}
        for spec in solitons.BUILTIN_SPECS:
            at = ",".join(repr(float(x)) for x in spec["base_point"])
            for what in TENSOR_WHAT:
                argv = ["tensor", "--instance", spec["name"], f"--at={at}", "--what", what]
                outputs[f"tensor {spec['name']} {what}"] = _cli(argv)
        return outputs
    outputs = {}
    for name in LEVELSET_INSTANCES:
        inst = solitons.get_instance(name)
        level = inst.potential_jet(inst.base_point, JetSpace.get(inst.n, 0)).value
        for seed in (11, 61, 62):
            for n_points in (12, 16):
                try:
                    rep = levelset.prop32_report(inst, level, n_points=n_points, seed=seed)
                    out = {"text": repr(rep), "exit": 0, "fields": rep}
                except Exception as exc:  # an error is an output too
                    out = {"text": f"{type(exc).__name__}: {exc}", "exit": 1}
                outputs[f"prop32 {name} seed {seed} points {n_points}"] = out
    return outputs


def _bench_extensions(path):
    """Write the benchmark's two expression-form extensions to `path`."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    Path(path).write_text(json.dumps(workloads.EXTENSIONS, indent=1) + "\n", encoding="utf-8")


def outputs_of(tree, label, work):
    """All contract outputs of the tree at `tree`, one fresh process per group."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(tree) / "src"))
    extensions = Path(work) / "extensions.json"
    outputs = {}
    for group in GROUPS:
        dest = Path(work) / f"{label}-{group}.json"
        cmd = [sys.executable, __file__, "--emit", group, "--extensions", str(extensions),
               "--work", str(work), "--out", str(dest)]
        subprocess.run(cmd, env=env, cwd=tree, check=True)
        outputs.update(json.loads(dest.read_text(encoding="utf-8")))
    return outputs


def _checks(out):
    """{(instance, check id): entry} of a verify output's report."""
    if not out.get("report"):
        return {}
    reports = json.loads(out["report"])
    reports = reports if isinstance(reports, list) else [reports]
    return {(r["instance"], e["id"]): e for r in reports for e in r["checks"]}


def _numbers(value):
    """The numbers of a report field, flattened in order (a list of lists for points)."""
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else [None]


def moved_fields(a, b):
    """(field, largest |Δ|) of each field that differs between two prop32
    reports, in report order; |Δ| is inf where a field's shape differs or a
    value is not a number."""
    moved = []
    for key in list(a) + [k for k in b if k not in a]:
        if repr(a.get(key)) == repr(b.get(key)):
            continue
        xs, ys = _numbers(a.get(key)), _numbers(b.get(key))
        if len(xs) != len(ys) or None in xs + ys:
            moved.append((key, math.inf))
        else:
            moved.append((key, max(abs(x - y) for x, y in zip(xs, ys))))
    return moved


def compare(old, new):
    """Lines describing how `new`'s outputs differ from `old`'s, and whether a
    status or an exit code changed (or an output is missing on one side)."""
    lines, changed, moved, moved_at = [], False, [], []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'new' if a is None else 'old'} tree")
            changed = True
            continue
        # "fields" is the text of a prop32 report, parsed
        differs = [key for key in sorted((set(a) | set(b)) - {"fields"})
                   if a.get(key) != b.get(key)]
        lines.append(f"{name}: " + ("byte-identical" if not differs
                                    else "differs in " + ", ".join(differs)))
        if "text" in differs and "fields" in a and "fields" in b:
            for key, delta in moved_fields(a["fields"], b["fields"]):
                lines.append(f"  field {key} moved, largest |Δ| {delta:.3e}")
        if a["exit"] != b["exit"]:
            lines.append(f"  exit code {a['exit']} -> {b['exit']}")
            changed = True
        checks_a, checks_b = _checks(a), _checks(b)
        for key in sorted(set(checks_a) | set(checks_b)):
            ea, eb = checks_a.get(key, {}), checks_b.get(key, {})
            if ea.get("status") != eb.get("status"):
                status = f"status {ea.get('status')} -> {eb.get('status')}"
                lines.append(f"  {key[0]} {key[1]}: {status}")
                changed = True
            ra, rb = ea.get("max_residual"), eb.get("max_residual")
            if ra != rb:
                delta = abs(rb - ra) if ra is not None and rb is not None else math.inf
                tolerance = eb.get("tolerance", ea.get("tolerance"))
                moved.append((delta, name, key, ra, rb, delta / tolerance if tolerance
                              else math.inf))
            pa, pb = ea.get("argmax_point"), eb.get("argmax_point")
            if pa != pb:
                moved_at.append((name, key, pa, pb))
    lines.append(f"moved max_residual values: {len(moved)}")
    for delta, name, key, ra, rb, _ in sorted(moved, key=lambda m: -m[0])[:MOVED_SHOWN]:
        lines.append(f"  {name} {key[0]} {key[1]}: {ra!r} -> {rb!r} (|Δ| {delta:.3e})")
    by_check = {}
    for delta, name, key, _, _, ratio in moved:
        count, largest, worst = by_check.get((name, key[1]), (0, 0.0, 0.0))
        by_check[name, key[1]] = count + 1, max(largest, delta), max(worst, ratio)
    lines.append(f"moved max_residual values by output and check: {len(by_check)}")
    for (name, check), (count, largest, worst) in sorted(
            by_check.items(), key=lambda item: (-item[1][2], item[0])):
        lines.append(f"  {name} {check}: {count} moved, largest |Δ| {largest:.3e}, "
                     f"largest |Δ|/tolerance {worst:.3e}")
    lines.append(f"moved argmax_point values: {len(moved_at)}")
    for name, key, pa, pb in moved_at[:MOVED_SHOWN]:
        lines.append(f"  {name} {key[0]} {key[1]}: {pa!r} -> {pb!r}")
    return lines, changed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="git revision to compare this tree with")
    parser.add_argument("--emit", choices=GROUPS, help=argparse.SUPPRESS)
    parser.add_argument("--extensions", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        outputs = emit(args.emit, args.extensions, args.work)
        Path(args.out).write_text(json.dumps(outputs), encoding="utf-8")
        return 0
    if not args.against:
        parser.error("--against REV is required")
    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        work = Path(tmp) / "work"
        work.mkdir()
        _bench_extensions(work / "extensions.json")
        old = outputs_of(base, "old", work)
        new = outputs_of(ROOT, "new", work)
    lines, changed = compare(old, new)
    identical = sum(line.endswith(": byte-identical") for line in lines)
    print("\n".join(lines))
    print(f"{identical} of {len(set(old) | set(new))} outputs byte-identical; "
          f"{'a status or exit code changed' if changed else 'no status or exit code changed'}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
