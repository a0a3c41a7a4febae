"""Workloads, input generation and output checks of the psl2cd benchmark.

Shared by run.py (the orchestrator), measure.py (one measured pass in a
fresh interpreter) and test_perfbench.py.  Nothing here imports psl2cd:
the checks re-derive what they can from the inputs instead of asking the
program under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass

SWEEP_ARGV = ("sweep", "--qmin", "7", "--qmax", "1048576", "--format", "json")

# Workloads driven through cli.main, as a user types them.
CLI_ARGV = {
    "sweep_wide": SWEEP_ARGV,
    "sweep_wide_jobs2": SWEEP_ARGV + ("--jobs", "2"),
    "facts_default": ("facts", "--format", "json"),
}
WORKLOADS = (*CLI_ARGV, "powers_deep")

POWERS_PER_PASS = 5000
POWERS_LOG2_MAX = 62
MAXIMALS_BELOW = 1 << 21  # above this the catalogue's indices leave the 2**63 range

FACT_IDS = tuple(f"F{i}" for i in range(1, 10))

# The host's speed is sampled at most once per REFERENCE_PERIOD_S of a pass,
# and times are reported as they would read on a host where one call of
# reference_work() takes REFERENCE_S, roughly its time on an unloaded core
# of a 2.0 GHz Xeon vCPU with Python 3.11.7.
REFERENCE_PERIOD_S = 0.02
REFERENCE_S = 0.0006


def reference_work() -> int:
    """A fixed piece of pure-Python work of about a millisecond that does
    not touch psl2cd: integer arithmetic, dict stores and calls."""
    table: dict[int, int] = {}
    total = 0
    for i in range(4000):
        total += divmod(i * i, 7)[1]
        table[i & 255] = total
    return total + len(table)


@dataclass(frozen=True)
class SweepExpected:
    """What a correct `sweep --format json` prints for one range."""

    q_min: int
    q_max: int
    groups: int
    passing: int
    sha256: str
    nbytes: int


# Recorded from the canonical output, which must stay byte-identical.
WIDE_SWEEP = SweepExpected(
    7,
    1048576,
    82999,
    82387,
    "3cd69ee05afb606298bea828e46f3e31ce38a48b87b897204fc734e2964bf7a0",
    27336833,
)
FACTS_SHA256 = "2f96207eace32d41a4194a24ae053c9773d3e81870f026572f8d826738e4ad39"
FACTS_NBYTES = 1809


class OutputStream:
    """Write-only text stream standing in for stdout.

    It hashes what it receives in 1 MiB slices and keeps only a short head
    and a few token counts, so checking a 27 MB report adds no second copy
    of it to the process's peak RSS.
    """

    COUNTED = ('"agree": ', '"agree": false', '"pass": true')
    HEAD_CHARS = 1 << 16
    _SLICE = 1 << 20
    _OVERLAP = max(map(len, COUNTED)) - 1

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._tail = ""
        self.nbytes = 0
        self.head = ""
        self.counts = dict.fromkeys(self.COUNTED, 0)

    def write(self, text: str) -> int:
        if len(self.head) < self.HEAD_CHARS:
            self.head += text[: self.HEAD_CHARS - len(self.head)]
        for token in self.COUNTED:
            # Occurrences split across two writes start in the previous tail.
            k = len(token) - 1
            self.counts[token] += text.count(token) + (self._tail[-k:] + text[:k]).count(token)
        self._tail = (self._tail + text[-self._OVERLAP :])[-self._OVERLAP :]
        for start in range(0, len(text), self._SLICE):
            chunk = text[start : start + self._SLICE].encode()
            self._sha.update(chunk)
            self.nbytes += len(chunk)
        return len(text)

    def flush(self) -> None:
        pass

    @property
    def sha256(self) -> str:
        return self._sha.hexdigest()


def _digest_problems(stream: OutputStream, sha256: str, nbytes: int) -> list[str]:
    problems = []
    if stream.nbytes != nbytes:
        problems.append(f"output is {stream.nbytes} bytes, expected {nbytes}")
    if stream.sha256 != sha256:
        problems.append(f"output sha256 {stream.sha256} != recorded {sha256}")
    return problems


def check_sweep(stream: OutputStream, rc: object, expected: SweepExpected) -> list[str]:
    """Problems with a sweep report; empty when it is the expected one.

    The summary is read from the head of the report (sorted keys put it
    before the verdict list), and the verdict list is checked against it
    through token counts, so a flipped verdict or a dropped one shows even
    where the summary was left intact.
    """
    problems = [] if rc == 0 else [f"exit code {rc!r}"]
    marker = '\n  "verdicts": ['
    cut = stream.head.find(marker)
    header = None
    if cut >= 0:
        try:
            header = json.loads(stream.head[:cut] + '\n  "verdicts": []\n}')
        except json.JSONDecodeError:
            pass
    if header is None:
        problems.append("no parsable report header before the verdict list")
        header = {}
    want = {
        "q_min": expected.q_min,
        "q_max": expected.q_max,
        "degree_mismatches": [],
        "overflowed": [],
        "summary": {
            "groups": expected.groups,
            "passing": expected.passing,
            "disagreements": 0,
            "converse_anomalies": 0,
            "degree_mismatches": 0,
        },
    }
    for key, value in want.items():
        if header.get(key) != value:
            problems.append(f"{key} is {header.get(key)!r}, expected {value!r}")
    for label, count, value in (
        ("verdicts", stream.counts['"agree": '], expected.groups),
        ("passing verdicts", stream.counts['"pass": true'], expected.passing),
        ("disagreeing verdicts", stream.counts['"agree": false'], 0),
    ):
        if count != value:
            problems.append(f"{count} {label} in the list, expected {value}")
    return problems + _digest_problems(stream, expected.sha256, expected.nbytes)


def check_facts(stream: OutputStream, rc: object, sha256: str = FACTS_SHA256,
                nbytes: int = FACTS_NBYTES) -> tuple[int, list[str]]:
    """(failed fact count, problems) for a `facts --format json` report.

    Each of F1..F9 is one operation; a command-level problem (exit code,
    unparsable or altered output) fails all nine.
    """
    problems = [] if rc == 0 else [f"exit code {rc!r}"]
    problems += _digest_problems(stream, sha256, nbytes)
    try:
        reports = {r.get("fact"): r for r in json.loads(stream.head)["facts"]}
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        return len(FACT_IDS), problems + ["facts report does not parse"]
    if problems:
        return len(FACT_IDS), problems
    failed = 0
    for fact_id in FACT_IDS:
        report = reports.get(fact_id)
        if report is None or report.get("holds") is not True or report.get("counterexamples") != []:
            failed += 1
            problems.append(f"{fact_id} does not hold: {report!r}")
    return failed, problems


# --- powers_deep ------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def deep_prime_powers(seed: int, count: int) -> list[tuple[int, int, int]]:
    """`count` distinct (q, p, f) with q = p**f, f >= 2, 7 <= q < 2**62.

    log2 q is drawn uniformly, one draw in each of `count` equal strata
    of [log2 7, 62) so that seeds differ less in their mix of sizes; then
    f uniformly from the exponents that leave p >= 2, and p is the first
    prime at or above 2**(log2 q / f).  Draws that land outside the range
    or repeat a q are drawn again.
    """
    rng = random.Random(seed)
    lo, span = math.log2(7), POWERS_LOG2_MAX - math.log2(7)
    seen: set[int] = set()
    out = []
    for stratum in range(count):
        for attempt in itertools.count():
            # Small strata hold only a few prime powers; after 20 repeats
            # the draw widens to the whole range.
            where = stratum + rng.random() if attempt < 20 else rng.uniform(0, count)
            bits = lo + span * where / count
            f = rng.randint(2, max(2, int(bits)))
            p = _next_prime(max(2, round(2 ** (bits / f))))
            q = p**f
            if 7 <= q < 1 << POWERS_LOG2_MAX and q not in seen:
                break
        seen.add(q)
        out.append((q, p, f))
    rng.shuffle(out)
    return out


def proper_extensions(p: int, f: int) -> set[tuple[str, int]]:
    """(kind, d) of every S < H <= Aut(PSL(2, p**f)), from the lattice of
    subgroups of Out(S) = C_f (p = 2) or C2 x C_f (p odd)."""
    divs = [d for d in range(1, f + 1) if f % d == 0]
    out = {("untwisted", d) for d in divs if d > 1}
    if p != 2:
        out |= {("with_diagonal", d) for d in divs}
        out |= {("twisted", d) for d in divs if d % 2 == 0}
    return out


def _verdict_problems(q: int, verdict: dict, mismatched_rows: list) -> list[str]:
    degrees = verdict.get("degrees") or []
    problems = []
    if verdict.get("q") != q:
        problems.append(f"verdict for q = {verdict.get('q')!r}")
    if verdict.get("agree") is not True:
        problems.append("disagreement")
    if verdict.get("pass") is not (verdict.get("violations") == []):
        problems.append("pass does not match the violation list")
    if verdict.get("pass") is True and not verdict.get("rows"):
        problems.append("passes but matches no row")
    if degrees[:1] != [1] or q not in degrees or any(a >= b for a, b in zip(degrees, degrees[1:])):
        problems.append(f"malformed degree set {degrees!r}")
    if mismatched_rows:
        problems.append(f"degree mismatch in rows {mismatched_rows!r}")
    return problems


def power_operations(q: int, p: int, f: int) -> int:
    """Operations for one prime power: its verdicts, plus the maximal
    subgroups when q is below MAXIMALS_BELOW."""
    return len(proper_extensions(p, f)) + (q < MAXIMALS_BELOW)


def check_power(q: int, p: int, f: int, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one prime power's results.

    Overflowed groups count as attempted, not failed; missing or repeated
    groups fail.
    """
    expected = proper_extensions(p, f)
    attempted = power_operations(q, p, f)
    problems = []
    failed = 0
    seen = [tuple(key) for key in result["overflowed"]]
    for verdict, mismatched_rows in result["verdicts"]:
        group = verdict.get("group") or {}
        seen.append((group.get("kind"), group.get("d")))
        found = _verdict_problems(q, verdict, mismatched_rows)
        if found:
            failed += 1
            problems.append(f"q = {q} {group.get('name')}: {'; '.join(found)}")
    missing = len(expected - set(seen))
    if missing or len(seen) != len(expected):
        failed += max(missing, 1)
        problems.append(f"q = {q}: groups {sorted(seen)}, expected {sorted(expected)}")
    maximals = result["maximals"]
    if q < MAXIMALS_BELOW:
        order = q * (q * q - 1) // math.gcd(2, q - 1)
        if not maximals or any(o * i != order for o, i in maximals):
            failed += 1
            problems.append(f"q = {q}: maximal subgroups {maximals!r} do not have order * index = {order}")
    elif maximals is not None:
        failed += 1
        problems.append(f"q = {q}: maximal subgroups computed above {MAXIMALS_BELOW}")
    return attempted, min(failed, attempted), problems
