"""Command-line interface: catalog inspection, tensor evaluation, verification."""

import argparse
import json
import sys

import numpy as np

from .errors import ConfigurationError, GradsolError, ValidationError
from .solitons import (
    PointEval,
    catalog,
    finite_numbers,
    get_instance,
    load_extension_file,
    validate_instance,
)
from .verify import report_to_json, run_suite, suite_passed


def _load_instances(args):
    return load_extension_file(args.extensions) if args.extensions else []


def _cmd_catalog(args):
    extra = _load_instances(args)
    if args.action == "list":
        for inst in extra + catalog():
            kind = inst.kind or "none (negative control)"
            print(f"{inst.name:28s} n={inst.n}  rho={inst.rho:+.2f}  kind={kind}")
            if args.verbose and inst.description:
                print(f"{'':28s} {inst.description}")
        return 0
    inst = get_instance(args.name, extra=extra)
    try:
        result = validate_instance(inst, n_points=args.points, seed=args.seed)
    except ValidationError as err:
        print(f"FAIL {inst.name}: {err}")
        return 1
    print(f"PASS {inst.name}")
    print(f"  defining-equation residual: {result['soliton_residual']:.3e} "
          f"over {result['n_points']} points")
    if "first_integral_residuals" in result:
        h1, h2 = result["first_integral_residuals"]
        print(f"  first-integral residuals:   {h1:.3e}, {h2:.3e}")
    print(f"  potential normalization:    shift {result['f_shift']:+.6g} "
          f"fixed at base point {result['base_point']}")
    return 0


def _cmd_verify(args):
    extra = _load_instances(args)
    if args.instance == "all":
        instances = [i for i in extra + catalog() if i.kind is not None]
    else:
        instances = [get_instance(args.instance, extra=extra)]
    reports = []
    ok = True
    for inst in instances:
        try:
            rep = run_suite(
                inst,
                n_points=args.points,
                seed=args.seed,
                order=args.order,
                tol_scale=args.tol_scale,
            )
        except ValidationError as err:
            print(f"== {inst.name}: certification failed\n   {err}")
            ok = False
            continue
        reports.append(rep)
        ok = ok and suite_passed(rep)
        cfg = rep["config"]  # the suite raises --points to its minimum
        print(f"== {inst.name} (order {cfg['order']}, {cfg['points']} points, seed {cfg['seed']})")
        counts = {}
        for e in rep["checks"]:
            counts[e["status"]] = counts.get(e["status"], 0) + 1
            resid = "-" if e["max_residual"] is None else f"{e['max_residual']:.3e}"
            line = f"   {e['id']:22s} {e['status']:8s} residual {resid:>10s}  tol {e['tolerance']:.1e}"
            if "error" in e:
                line += f"  [{e['error']}]"
            print(line)
        print("   summary: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
        if inst.n == 5:
            thm = next(e for e in rep["checks"] if e["id"] == "thm5.2")
            if thm["status"] == "SKIPPED":
                status = {"status": "skipped", "reason": "needs order 5"}
            else:
                status = thm.get("detail", {"status": "error", "reason": thm.get("error")})
            print(f"   equivalence status: {json.dumps(status, sort_keys=True, default=float)}")
    if args.report and reports:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(*reports))
        print(f"report written to {args.report}")
    elif args.report:
        print("no report written: no instance completed the suite")
    return 0 if ok else 1


_TENSOR_WHAT = ("weyl", "cotton", "bach", "d", "ricci", "scalar")
_TENSOR_ATTR = {"weyl": "weyl", "cotton": "cotton", "bach": "bach", "d": "dtensor"}


def _cmd_tensor(args):
    extra = _load_instances(args)
    inst = get_instance(args.instance, extra=extra)
    point = finite_numbers(args.at.split(","), "--at")
    if len(point) != inst.n:
        raise ConfigurationError(f"--at needs {inst.n} coordinates, got {len(point)}")
    inst.require_inside(point)
    ev = PointEval(inst, point, args.order)
    if args.what == "scalar":
        print(f"scalar curvature at {point}: {ev.pack.scalar.value!r}")
        return 0
    tensor = ev.pack.ricci if args.what == "ricci" else getattr(ev, _TENSOR_ATTR[args.what])
    # a component that prints as zero prints unsigned, whatever its rounding
    values = np.where(np.round(tensor.values, 10) == 0.0, 0.0, tensor.values)
    print(f"{args.what} components at {point} (chart basis):")
    print(np.array2string(values, precision=10, suppress_small=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradsol",
        description="Curvature-identity verification on gradient Ricci solitons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list or certify catalog instances")
    p_cat.add_argument("action", choices=["list", "validate"])
    p_cat.add_argument("name", nargs="?", help="instance name (for validate)")
    p_cat.add_argument("--points", type=int, default=20)
    p_cat.add_argument("--seed", type=int, default=7)
    p_cat.add_argument("--extensions", help="JSON catalog extension file")
    p_cat.add_argument("--verbose", action="store_true")

    p_ver = sub.add_parser("verify", help="run the identity suite")
    p_ver.add_argument("--instance", required=True, help="instance name or 'all'")
    p_ver.add_argument("--order", type=int, choices=[4, 5], default=5)
    p_ver.add_argument("--points", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--tol-scale", type=float, default=1.0, dest="tol_scale")
    p_ver.add_argument("--report", help="write machine-readable JSON here")
    p_ver.add_argument("--extensions", help="JSON catalog extension file")

    p_ten = sub.add_parser("tensor", help="print tensor components at a point")
    p_ten.add_argument("--instance", required=True)
    p_ten.add_argument("--at", required=True, help="comma-separated coordinates")
    p_ten.add_argument("--what", required=True, choices=_TENSOR_WHAT)
    p_ten.add_argument("--order", type=int, choices=[4, 5], default=5)
    p_ten.add_argument("--extensions", help="JSON catalog extension file")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            if args.action == "validate" and not args.name:
                parser.error("catalog validate requires an instance name")
            return _cmd_catalog(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_tensor(args)
    except GradsolError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
