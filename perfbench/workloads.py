"""The benchmark's workloads and the checks every report must pass.

Each workload is a fixed list of CLI requests (argv lists for
``fatpt.cli.run``) built from the benchmark seed. One pass sends them in
order from a single client, each after the previous one returned; a run
repeats the pass, so every report is produced at least twice and must come
out byte for byte the same. Why each workload exists, and which layers it
exercises and bypasses, is in README.md next to this file.

- census: ``sweep --max-degree 22``. Thousands of tiny splitting
  computations, each class split once; no cokernel, no large matrix.
- verify: ``sweep --max-degree 20 --verify``. A few mid-size and large
  eliminations per escape, and a second splitting of every escape.
- lattice: ``resolution`` and ``hilbert`` of seeded random schemes, the
  three acceptance schemes, and ``enumerate-exceptional --max-degree 28``.
  Weyl reduction and decomposition in pure Python, almost no elimination.

For census and verify the seed is fatpt's ``--seed``. For lattice it picks
the random schemes, and fatpt runs at its default seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("census", "verify", "lattice")
DEFAULT_SEED = 20260814
DIGESTS = Path(__file__).with_name("digests.json")

ACCEPTANCE_SCHEMES = ("77x7,44,11x3", "48,33x3,32x3,24,16", "50,50,38,38,26,26,22,18,14,14")

# Sizes: the benchmark proper, and a tiny variant for the benchmark's tests
# and for warm-up.
SIZES = {
    "full": {"census": 18, "verify": 21, "lattice": (200, 28)},
    "tiny": {"census": 10, "verify": 13, "lattice": (3, 8)},
}

# Counts a sweep must report at every seed, by --max-degree: the class
# count is fixed by the enumeration, and the escapes by the true splitting
# types. A --verify sweep must also report no violation.
SWEEP_INVARIANTS = {
    10: {"total": 69, "escapes": 0},
    13: {"total": 209, "escapes": 1},
    18: {"total": 1129, "escapes": 11},
    20: {"total": 2051, "escapes": 25},
    21: {"total": 2737, "escapes": 46},
}
ENUMERATE_COUNTS = {28: 17382}


@dataclass
class Request:
    argv: list[str]
    kind: str  # the subcommand

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def random_scheme(rng: random.Random) -> str:
    """7 to 11 points with multiplicities 1 to 79, written descending."""
    n = rng.randint(7, 11)
    mults = sorted((rng.randint(1, 79) for _ in range(n)), reverse=True)
    return ",".join(str(m) for m in mults)


def build(workload: str, seed: int, size: str = "full") -> list[Request]:
    """The request list of one pass."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    param = SIZES[size][workload]
    if workload == "census":
        argv = ["sweep", "--max-degree", str(param), "--seed", str(seed)]
        return [Request(argv, "sweep")]
    if workload == "verify":
        argv = ["sweep", "--max-degree", str(param), "--verify", "--seed", str(seed)]
        return [Request(argv, "sweep")]
    count, max_degree = param
    rng = random.Random(seed)
    schemes = [random_scheme(rng) for _ in range(count)]
    schemes += ACCEPTANCE_SCHEMES if size == "full" else ACCEPTANCE_SCHEMES[:1]
    out = []
    for spec in schemes:
        out.append(Request(["resolution", "--mults", spec], "resolution"))
        out.append(Request(["hilbert", "--mults", spec], "hilbert"))
    out.append(Request(["enumerate-exceptional", "--max-degree", str(max_degree)], "enumerate-exceptional"))
    return out


def load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Verdict:
    """Outcome of checking one report. A request is one operation, and so
    is each verification row in it; ``problems`` says what failed."""

    rows: int = 0
    failed_rows: int = 0
    classes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return 1 + self.rows

    @property
    def failed(self) -> int:
        request_failed = len(self.problems) > self.failed_rows
        return int(request_failed) + self.failed_rows

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def fail_row(self, problem: str) -> None:
        self.failed_rows += 1
        self.problems.append(problem)


class Checker:
    """Checks reports against recorded digests, the workload invariants,
    and the report the same request gave in the first pass."""

    def __init__(self, fatpt_modules: dict, digests: dict):
        self.lattice = fatpt_modules["lattice"]
        self.betti = fatpt_modules["betti"]
        self.digests = digests
        self.first: dict[str, str] = {}

    def check(self, req: Request, code: int, text: str) -> Verdict:
        v = Verdict()
        digest = sha256(text)
        if code != 0:
            v.fail(f"exit code {code}")
        recorded = self.digests.get(req.key)
        if recorded is not None and recorded != digest:
            v.fail("report differs from the recorded digest")
        first_time = req.key not in self.first
        if self.first.setdefault(req.key, digest) != digest:
            v.fail("report differs from the first pass")
        try:
            report = json.loads(text)
        except ValueError:
            v.fail("report is not JSON")
            return v
        if req.kind == "sweep":
            self._check_sweep(req, report, v)
        elif req.kind == "enumerate-exceptional":
            v.classes = report["count"]
            expected = ENUMERATE_COUNTS.get(report["max_degree"])
            if expected is not None and report["count"] != expected:
                v.fail(f"{report['count']} exceptional classes, expected {expected}")
        elif req.kind == "resolution" and first_time:
            self._check_resolution(report, v)
        return v

    def _check_sweep(self, req: Request, report: dict, v: Verdict) -> None:
        v.classes = report["total"]
        got = {"total": report["total"], "escapes": len(report["escapes"])}
        for name, want in SWEEP_INVARIANTS.get(report["max_degree"], {}).items():
            if got[name] != want:
                v.fail(f"sweep {name} {got[name]}, expected {want}")
        if report.get("violations", 0):
            v.fail(f"sweep reports {report['violations']} violations")
        for row in report.get("verification", ()):
            v.rows += 1
            if "skipped" in row:
                v.fail_row(f"verification of {row['class']} skipped")
            elif not row["match"]:
                v.fail_row(f"VIOLATION at {row['class']}")

    def _check_resolution(self, report: dict, v: Verdict) -> None:
        """Rebuild the table from the report and check that its ranks
        reproduce the ideal dimensions, when every entry is a number."""
        betti = self.betti
        entries = []
        for row in report["rows"]:
            g, s = row["generators"], row["syzygies"]
            entries.append(
                betti.BettiEntry(
                    row["degree"],
                    g if isinstance(g, int) else None,
                    tuple(g) if isinstance(g, list) else None,
                    s if isinstance(s, int) else None,
                    tuple(s) if isinstance(s, list) else None,
                    row["flag"],
                )
            )
        table = betti.ResolutionTable(
            self.lattice.parse_mults(report["scheme"]),
            report["alpha"],
            report["regularity"],
            tuple(entries),
            report["alpha_plus_one_path"],
            (),
        )
        try:
            betti.check_hilbert_consistency(table)
        except AssertionError as exc:
            v.fail(f"resolution of {report['scheme']}: {exc}")
