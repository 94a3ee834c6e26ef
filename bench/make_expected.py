#!/usr/bin/env python3
"""Regenerate ``expected.json``, the benchmark's expected-outcome table.

    python3 bench/make_expected.py --seeds 7 1 2

For every verify request it records the exit code and each check's status;
for every level-set request, the number of level points.  Each request runs
once per seed and the outcomes must agree across seeds, so the table does
not depend on the workload seed.  Expression-form extension copies must
match their built-in twins.  Run it on the commit that defines the
expected behaviour; the benchmark then holds later commits to it.
"""

import argparse
import contextlib
import io
import json
import sys

from run import WORK_DIR, import_gradsol
from workloads import EXPECTED_PATH, EXTENSIONS, LEVEL_POINTS, POINTS, TWINS, \
    LevelsetWorkload


def verify_outcome(label, order, seed, extensions):
    import gradsol.cli as cli

    report = WORK_DIR / "expected-report.json"
    argv = ["verify", "--instance", label, "--order", str(order), "--points", str(POINTS),
            "--seed", str(seed), "--report", str(report)]
    if extensions:
        argv += ["--extensions", str(extensions)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    checks = json.loads(report.read_text(encoding="utf-8"))["checks"]
    return {"exit": rc, "checks": {c["id"]: c["status"] for c in checks}}


def agreed(outcomes, what):
    first = outcomes[0]
    for other in outcomes[1:]:
        if other != first:
            raise SystemExit(f"{what}: outcome depends on the seed: {first} vs {other}")
    return first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 1, 2])
    args = parser.parse_args(argv)
    import_gradsol()
    from gradsol.solitons import catalog

    WORK_DIR.mkdir(exist_ok=True)
    ext_path = WORK_DIR / "extensions.json"
    ext_path.write_text(json.dumps(EXTENSIONS, indent=1) + "\n")
    certified = [i.name for i in catalog() if i.kind is not None]
    table = {"verify-o5": {}, "verify-o4-ext": {}, "levelset": {}}
    for name, order, labels, ext in (
        ("verify-o5", 5, certified, None),
        ("verify-o4-ext", 4, certified + list(TWINS), ext_path),
    ):
        for label in labels:
            table[name][label] = agreed(
                [verify_outcome(label, order, s, ext) for s in args.seeds], f"{name} {label}")
            print(name, label, table[name][label]["exit"], file=sys.stderr)
    for copy, twin in TWINS.items():
        if table["verify-o4-ext"][copy] != table["verify-o4-ext"][twin]:
            raise SystemExit(f"{copy} does not reproduce {twin}")

    # the level-set requests: every instance on which the suite runs prop3.2
    levels = [label for label, exp in table["verify-o5"].items()
              if exp["checks"]["prop3.2"] != "N/A"]
    table["levelset"] = {label: {"n_points": LEVEL_POINTS} for label in levels}
    workload = LevelsetWorkload(WORK_DIR, table)
    workload.setup()
    for label in levels:
        for s in args.seeds:
            problems = workload.request(label, s).problems
            if problems:
                raise SystemExit(f"levelset {label} seed {s}: {problems}")
    EXPECTED_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH.name} from seeds {args.seeds}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
