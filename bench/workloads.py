"""The benchmark's three workloads: set-up, requests and output checks.

Each workload is a closed loop with one client: the next request starts
when the previous one has returned.  A request is one public gradsol call,
timed at its boundary by the caller; its output is checked afterwards,
outside the timed region, against the expected-outcome table
``expected.json``.

* ``verify-o5``: ``gradsol.cli.main(["verify", ...])`` at order 5 for each of
  the 15 certified catalog instances (``gradsol verify --instance all``
  split per instance).
* ``verify-o4-ext``: the same request at order 4 with ``--extensions``, for
  the 15 certified instances plus expression-form copies of
  ``cylinder-s3xr`` and ``s2xr3``, whose statuses must equal their twins'.
* ``levelset``: ``gradsol.levelset.prop32_report`` at the base-point level
  of every instance on which the suite runs prop3.2.

gradsol is imported inside ``setup`` so that set-up time includes it.
"""

import contextlib
import io
import json
import time
from pathlib import Path

POINTS = 20           # sample points per verify request
LEVEL_POINTS = 16     # level points per prop3.2 request
WARMUP_POINTS = 8     # the suite's minimum: warms every cache at a third of the cost
WARMUP_LEVEL_POINTS = 4

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Expression-form copies of two catalog instances.  Their metrics go through
# the exprs tree-walker instead of the catalog's Python closures; the
# geometry, box and base point are the twins'.
TWINS = {"cylinder-s3xr-expr": "cylinder-s3xr", "s2xr3-expr": "s2xr3"}
_S3 = "4*(2/(1+x1^2+x2^2+x3^2))^2"
_S2 = "2*(2/(1+x1^2+x2^2))^2"
EXTENSIONS = {
    "instances": [
        {
            "name": "cylinder-s3xr-expr", "n": 4, "rho": 0.5, "kind": "shrinking",
            "metric": [[_S3, "0", "0", "0"], ["0", _S3, "0", "0"],
                       ["0", "0", _S3, "0"], ["0", "0", "0", "1"]],
            "potential": "x4^2/4 + 1.5",
            "domain": {"box": [[-1.2, 1.2]] * 3 + [[-4, 4]]},
            "base_point": [0, 0, 0, 2],
        },
        {
            "name": "s2xr3-expr", "n": 5, "rho": 0.5, "kind": "shrinking",
            "metric": [[_S2 if i == j < 2 else ("1" if i == j else "0")
                        for j in range(5)] for i in range(5)],
            "potential": "(x3^2 + x4^2 + x5^2)/4 + 1",
            "domain": {"box": [[-1.2, 1.2]] * 2 + [[-3, 3]] * 3},
            "base_point": [0, 0, 2, 0, 0],
        },
    ]
}


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Outcome:
    """One request's latency and the reasons, if any, it counts as failed."""

    __slots__ = ("label", "seconds", "problems", "statuses")

    def __init__(self, label, seconds, problems, statuses=None):
        self.label = label
        self.seconds = seconds
        self.problems = problems
        self.statuses = statuses


class VerifyWorkload:
    """In-process ``gradsol verify`` requests, one per instance."""

    def __init__(self, name, order, extensions, work_dir, expected):
        self.name = name
        self.order = order
        self.extensions = extensions
        self.work_dir = Path(work_dir)
        self.expected = expected[name]
        self.labels = list(self.expected)
        self.report_path = self.work_dir / f"report-{name}.json"
        self.ext_path = self.work_dir / "extensions.json"
        self.dims = {}
        self.instances = []  # benchmark-built instances to trace; the CLI builds its own
        self._pass_statuses = {}

    def setup(self):
        """Build the catalog (and extensions) and note each request's dimension."""
        import gradsol.solitons as solitons

        insts = [i for i in solitons.catalog() if i.kind is not None]
        if self.extensions:
            self.ext_path.write_text(json.dumps(EXTENSIONS, indent=1) + "\n")
            insts += solitons.load_extension_file(str(self.ext_path))
        by_name = {i.name: i for i in insts}
        missing = [label for label in self.labels if label not in by_name]
        if missing:
            raise RuntimeError(f"{self.name}: instances not in the catalog: {missing}")
        self.dims = {label: by_name[label].n for label in self.labels}
        return {(n, o) for n in self.dims.values() for o in range(self.order + 1)}

    def _argv(self, label, seed, points):
        argv = ["verify", "--instance", label, "--order", str(self.order),
                "--points", str(points), "--seed", str(seed),
                "--report", str(self.report_path)]
        if self.extensions:
            argv += ["--extensions", str(self.ext_path)]
        return argv

    def warm_up(self, seed):
        """One untimed request per dimension, at the suite's minimum point count."""
        import gradsol.cli

        for n in sorted(set(self.dims.values())):
            label = next(lb for lb in self.labels if self.dims[lb] == n)
            with contextlib.redirect_stdout(io.StringIO()):
                gradsol.cli.main(self._argv(label, seed, WARMUP_POINTS))

    def start_pass(self):
        self._pass_statuses = {}

    def request(self, label, seed, tracer=None):
        import gradsol.cli as cli

        if self.report_path.exists():
            self.report_path.unlink()
        reports = []
        run_suite = cli.run_suite

        def recording_run_suite(*args, **kwargs):
            rep = run_suite(*args, **kwargs)
            reports.append(rep)
            return rep

        cli.run_suite = recording_run_suite
        token = tracer.begin_request(label) if tracer else None
        raised = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(self._argv(label, seed, POINTS))
                except Exception as exc:  # a raising request is a failed request
                    raised = exc
                seconds = time.perf_counter() - t0
        finally:
            if token:
                tracer.end_request(token)
            cli.run_suite = run_suite
        if raised is not None:
            return Outcome(label, seconds, [f"raised {type(raised).__name__}: {raised}"])
        return self.check(label, seed, rc, reports, seconds)

    def check(self, label, seed, rc, reports, seconds):
        """Compare exit code, report file and check statuses with the table."""
        exp = self.expected[label]
        problems = []
        if rc != exp["exit"]:
            problems.append(f"exit code {rc}, expected {exp['exit']}")
        try:
            report = json.loads(self.report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return Outcome(label, seconds, problems + [f"no readable report: {exc}"])
        config = {"order": self.order, "points": POINTS, "seed": seed}
        if report.get("instance") != label or report.get("config") != config:
            problems.append(f"report header {report.get('instance')!r} "
                            f"{report.get('config')} does not match the request")
        statuses = {c["id"]: c["status"] for c in report.get("checks", [])}
        if list(statuses.items()) != list(exp["checks"].items()):
            diff = sorted(k for k in set(statuses) | set(exp["checks"])
                          if statuses.get(k) != exp["checks"].get(k))
            problems.append(f"statuses differ from the table on {diff}")
        errors = [f"{e['id']}: {e['error']}" for rep in reports
                  for e in rep["checks"] if "error" in e]
        if errors:
            problems.append(f"checks carry errors: {errors}")
        twin = TWINS.get(label)
        if twin is not None and twin in self._pass_statuses \
                and self._pass_statuses[twin] != statuses:
            problems.append(f"statuses differ from twin {twin}")
        self._pass_statuses[label] = statuses
        return Outcome(label, seconds, problems, statuses)


class LevelsetWorkload:
    """``prop32_report`` at the base-point level, one request per instance."""

    name = "levelset"

    def __init__(self, work_dir, expected):
        self.expected = expected[self.name]
        self.labels = list(self.expected)
        self.levels = {}
        self.instances = []
        self.tolerance = None

    def setup(self):
        """Build the instances and the base-point level of each."""
        import gradsol.solitons as solitons
        from gradsol.jets import JetSpace
        from gradsol.verify import CHECKS

        by_name = {i.name: i for i in solitons.catalog()}
        self.instances = [by_name[label] for label in self.labels]
        self.tolerance = next(c.tolerance for c in CHECKS if c.id == "prop3.2")
        for inst in self.instances:
            space = JetSpace.get(inst.n, 0)
            self.levels[inst.name] = inst.potential_jet(inst.base_point, space).value
        return {(i.n, o) for i in self.instances for o in range(4)}

    def warm_up(self, seed):
        import gradsol.levelset

        seen = set()
        for inst in self.instances:
            if inst.n not in seen:
                seen.add(inst.n)
                gradsol.levelset.prop32_report(
                    inst, self.levels[inst.name], n_points=WARMUP_LEVEL_POINTS, seed=seed)

    def start_pass(self):
        pass

    def request(self, label, seed, tracer=None):
        import gradsol.levelset as levelset

        inst = self.instances[self.labels.index(label)]
        token = tracer.begin_request(label) if tracer else None
        raised = None
        t0 = time.perf_counter()
        try:
            rep = levelset.prop32_report(
                inst, self.levels[label], n_points=LEVEL_POINTS, seed=seed)
        except Exception as exc:  # a raising request is a failed request
            raised = exc
        seconds = time.perf_counter() - t0
        if token:
            tracer.end_request(token)
        if raised is not None:
            return Outcome(label, seconds, [f"raised {type(raised).__name__}: {raised}"])
        return Outcome(label, seconds, self.check(rep))

    def check(self, rep):
        """Each prop3.2 quantity, normalised as the suite does, within tolerance."""
        problems = []
        want = self.expected[rep["instance"]]["n_points"]
        if rep["n_points"] != want or len(rep["points"]) != want:
            problems.append(f"{rep['n_points']} level points, expected {want}")
        quantities = {
            "r_spread": rep["r_spread"] / (1.0 + abs(rep["r_mean"])),
            "grad_sq_spread": rep["grad_sq_spread"] / (1.0 + abs(rep["grad_sq_mean"])),
            "h_spread": rep["h_spread"] / (1.0 + abs(rep["h_mean"])),
            "ricci_mixed_max": rep["ricci_mixed_max"],
            "umbilicity_max": rep["umbilicity_max"],
            "eigenvalue_mismatch": rep["eigenvalue_mismatch"],
        }
        for key, value in quantities.items():
            if not value <= self.tolerance:  # NaN fails too
                problems.append(f"{key} = {value:.3e} exceeds {self.tolerance:.1e}")
        return problems


WORKLOADS = ("verify-o5", "verify-o4-ext", "levelset")


def make_workload(name, work_dir, expected):
    if name == "verify-o5":
        return VerifyWorkload(name, 5, False, work_dir, expected)
    if name == "verify-o4-ext":
        return VerifyWorkload(name, 4, True, work_dir, expected)
    if name == "levelset":
        return LevelsetWorkload(work_dir, expected)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
