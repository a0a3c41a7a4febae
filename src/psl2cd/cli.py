"""Command-line front end.

Exit codes: 0 = success and every checked claim holds; 1 = a verified
claim failed (two-prime violation, sweep disagreement, degree mismatch,
or a fact counterexample); 2 = usage or input error, or stdout closed
before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Iterator, NoReturn, Sequence, TextIO

from .arithmetic import factor, omega
from .classifier import (
    GroupVerdict,
    SweepTally,
    brute_force_verdict,
    sweep,  # not called here; perfbench/measure.py wraps cli.sweep by name
    sweep_parts,
    tally_sweep,
    verdict_to_dict,
)
from .facts import FACTS, fact_report_to_dict, verify_all, verify_fact
from .groups import (
    GroupDescriptor,
    OuterSubgroup,
    PrimePower,
    character_degrees,
    degree_columns,
    group_name,
    group_to_dict,
    parse_outer,
)
from .maximals import maximal_subgroups, pgl_maximals_special, pgl2_order, psl2_order
from .twoprime import Violation, check_set, violation_to_dict


def to_json(payload: object) -> str:
    """Canonical JSON: sorted keys, two-space indent, integers only.

    Parsing the output and re-serializing it through this function is
    byte-identical.
    """
    return json.dumps(payload, sort_keys=True, indent=2)


# Verdicts filled into their templates with one format call.  A fill of 256
# PGL(2,p) verdicts is about 85 KB of text, below glibc's default 128 KiB
# mmap threshold; at 512 each fill's strings were mapped and unmapped, about
# 3,200 page faults per 7..2^20 JSON sweep once no larger buffer was freed.
_VERDICT_BATCH = 256
# Every integer slot of a template; no literal part of a verdict has three
# digits in a row (d and f are at most 62), so its digits mark the slots.
_SLOT = 2**63 - 1


@functools.lru_cache(maxsize=1024)  # verdict shapes; 7..2^20 has 149
def _verdict_template(outer: OuterSubgroup, f: int, terms: tuple, rows: tuple[str, ...], n_violations: int) -> str:
    """``to_json(verdict_to_dict(v))`` for every verdict v of a part of
    ``classifier.sweep_parts`` with this outer, f, degree terms, rows and
    number of violations, as an item of the sweep report's verdict list
    (four spaces deep), with a ``%s`` slot for each degree, for q (in the
    name, then in "q") and for each violation's a, b, gcd and omega.  The
    key fixes every literal part ("pass" and "agree" follow from the rows
    and the number of violations), and the terms the number of degrees,
    one per term; every other integer of the placeholder is ``_SLOT``."""
    g = GroupDescriptor(PrimePower(_SLOT, f, _SLOT), outer)
    violations = (Violation(_SLOT, _SLOT, _SLOT, _SLOT),) * n_violations
    degrees = (_SLOT,) * len(terms)
    placeholder = GroupVerdict(g, degrees, violations, rows, degree_mismatches=())
    text = to_json(verdict_to_dict(placeholder)).replace("%", "%%")
    return text.replace("\n", "\n    ").replace(str(_SLOT), "%s")


def _rendered(parts: Iterator[tuple]) -> Iterator[str]:
    """The verdict text of ``classifier.sweep_parts``' parts, four spaces
    deep: each part's template filled for a slice of ``_VERDICT_BATCH`` of
    its q at a time, joined by commas.  The slice's degrees are built by
    columns, ``degree_columns`` of the part's terms, and zipped with the
    slice twice, so each q's slots are its degrees and q twice; then come
    the violations' numbers once per slice (only a part of one q has
    violations)."""
    for (odds, flags), _, f, outer, terms, violations, rows, _ in parts:
        template = _verdict_template(outer, f, terms, rows, len(violations))
        qs = itertools.compress(odds, flags)
        while chunk := list(itertools.islice(qs, _VERDICT_BATCH)):
            numbers = itertools.chain.from_iterable(zip(*degree_columns(chunk, terms), chunk, chunk))
            yield ",\n    ".join([template] * len(chunk)) % (*numbers, *itertools.chain.from_iterable(violations))


def _sweep_json(q_min: int, q_max: int, out: TextIO) -> SweepTally:
    """Write ``to_json`` of the sweep report over [q_min, q_max], plus a
    newline, to ``out``; return the tally.

    The head of the report holds the tally, and the verdicts follow it, so
    the sweep runs twice: ``tally_sweep`` for the head, then
    ``sweep_parts`` once more for the verdicts, which sieves again and
    decides each part again.  The two sieves are built one after the
    other, never at once, and nothing is held between the passes.
    ``sweep_parts`` is called before the first byte is written,
    so a sweep that fails writes nothing.  The head and tail are
    ``to_json`` of the report with ``_SLOT`` as its one verdict, split at
    the last ``_SLOT``.  The verdicts, nearly all of the text, are written
    between them by ``_rendered`` as the parts come, so the report never
    exists as one string or as dicts.
    """
    tally = tally_sweep(q_min, q_max)
    head, _, tail = to_json(
        {
            "q_min": q_min,
            "q_max": q_max,
            "degree_mismatches": [
                {"q": v.descriptor.q.q, "group": group_name(v.descriptor), "rows": list(v.degree_mismatches)}
                for v in tally.degree_mismatched
            ],
            "overflowed": [],  # kept for the format; classifier.sweep_parts shows no degree reaches 2**63
            "summary": tally.summary,
            "verdicts": [_SLOT],
        }
    ).rpartition(str(_SLOT))
    parts = sweep_parts(q_min, q_max)
    out.write(head)
    for i, text in enumerate(_rendered(parts)):
        if i:
            out.write(",\n    ")
        out.write(text)
    out.write(tail + "\n")
    return tally


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(to_json(payload))
    else:
        for line in text_lines:
            print(line)


def _descriptor(args: argparse.Namespace) -> GroupDescriptor:
    pp = PrimePower.from_value(args.q)
    outer = parse_outer(args.outer or "", pp)
    return GroupDescriptor(pp, outer)


def _format_factorization(fs: tuple[tuple[int, int], ...]) -> str:
    if not fs:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fs)


def _cmd_factor(args: argparse.Namespace) -> int:
    fs = factor(args.n)
    payload = {"n": args.n, "factors": [[p, e] for p, e in fs], "omega": sum(e for _, e in fs)}
    _emit(args, payload, [f"{args.n} = {_format_factorization(fs)}"])
    return 0


def _cmd_omega(args: argparse.Namespace) -> int:
    value = omega(args.n)
    _emit(args, {"n": args.n, "omega": value}, [f"omega({args.n}) = {value}"])
    return 0


def _cmd_cd(args: argparse.Namespace) -> int:
    g = _descriptor(args)
    degrees = character_degrees(g)
    payload = {"q": g.q.q, "group": group_to_dict(g), "degrees": degrees}
    text = [
        f"group: {group_name(g)}",
        f"degrees: {', '.join(map(str, degrees))}",
    ]
    _emit(args, payload, text)
    return 0


def _parse_degree_list(raw: str) -> list[int]:
    try:
        return [int(piece) for piece in raw.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad degree list {raw!r}: {exc}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    degrees = sorted(_parse_degree_list(args.degrees))
    violations = check_set(degrees)
    payload = {
        "degrees": degrees,
        "pass": not violations,
        "violations": [violation_to_dict(v) for v in violations],
    }
    text = [f"degrees: {', '.join(map(str, degrees))}"]
    if not violations:
        text.append("two-prime condition: PASS")
    else:
        text.append(f"two-prime condition: FAIL ({len(violations)} violation(s))")
        text.extend(
            f"  ({v.a}, {v.b}): gcd = {v.gcd}, omega = {v.omega}"
            for v in violations
        )
    _emit(args, payload, text)
    return 1 if violations else 0


def _cmd_maximals(args: argparse.Namespace) -> int:
    if args.pgl:
        entries = pgl_maximals_special(args.q)
        name, order = f"PGL(2,{args.q})", pgl2_order(args.q)
    else:
        pp = PrimePower.from_value(args.q)
        entries = maximal_subgroups(pp)
        name, order = f"PSL(2,{args.q})", psl2_order(pp)
    payload = {
        "q": args.q,
        "group": name,
        "group_order": order,
        "entries": [e._asdict() for e in entries],
    }
    text = [f"maximal subgroups of {name} (order {order}):"]
    text.extend(
        f"  {e.structure:<14} order = {e.order:<10} index = {e.index:<10} omega(index) = {e.omega_index}"
        for e in entries
    )
    _emit(args, payload, text)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _descriptor(args)
    verdict = brute_force_verdict(g)
    payload = verdict_to_dict(verdict)
    text = [
        f"group: {group_name(g)}  (q = {g.q.q}, kind = {g.outer.kind.value}, d = {g.outer.d})",
        f"degrees: {', '.join(map(str, verdict.degrees))}",
        f"two-prime condition: {'PASS' if verdict.brute_pass else 'FAIL'}",
    ]
    text.extend(
        f"  violation ({v.a}, {v.b}): gcd = {v.gcd}, omega = {v.omega}"
        for v in verdict.violations
    )
    text.append(f"rows matched: {', '.join(verdict.matched_rows) or '(none)'}")
    text.append(f"agree: {'yes' if verdict.agree else 'NO'}")
    _emit(args, payload, text)
    return 0 if verdict.agree and not verdict.degree_mismatches else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"argument --jobs: must be at least 1, got {args.jobs}")
    if args.format == "json":
        tally = _sweep_json(args.qmin, args.qmax, sys.stdout)
    else:
        tally = tally_sweep(args.qmin, args.qmax)
        print(f"sweep q in [{args.qmin}, {args.qmax}]: {tally.summary['groups']} groups")
        print(
            "passing: {passing}   disagreements: {disagreements}   "
            "converse anomalies: {converse_anomalies}   degree mismatches: {degree_mismatches}".format(**tally.summary)
        )
        for verdict in tally.disagreements:
            print(f"  DISAGREEMENT: {group_name(verdict.descriptor)} passes but matches no row")
        for verdict in tally.degree_mismatched:
            print(f"  DEGREE MISMATCH: {group_name(verdict.descriptor)} rows {', '.join(verdict.degree_mismatches)}")
    if args.jobs is not None:
        print("note: sweeps run serially; --jobs is ignored", file=sys.stderr)
    return 1 if tally.disagreements or tally.degree_mismatched else 0


def _cmd_facts(args: argparse.Namespace) -> int:
    if args.limit is not None and args.fact is None:
        raise ValueError("--limit needs --fact (defaults differ per fact)")
    reports = [verify_fact(args.fact, args.limit)] if args.fact else verify_all()
    payload = {"facts": [fact_report_to_dict(r) for r in reports]}
    text = []
    for r in reports:
        status = "PASS" if r.holds else "FAIL"
        text.append(f"{r.fact_id} {status}  ({r.range_tested})  {r.claim}")
        if not r.holds:
            text.append(f"  counterexamples: {', '.join(map(str, r.counterexamples))}")
    _emit(args, payload, text)
    return 0 if all(r.holds for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as ValueError, for ``main`` to print as one
    line; subparsers are made of the same class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message.replace("\n", r"\n"))  # unrecognized arguments are quoted raw


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psl2cd",
        description="Degree sets of almost simple groups with socle PSL(2,q) "
        "and the two-prime condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("factor", _cmd_factor, "prime factorization of n")
    p.add_argument("--n", type=int, required=True)

    p = add("omega", _cmd_omega, "prime divisors of n counted with multiplicity")
    p.add_argument("--n", type=int, required=True)

    p = add("cd", _cmd_cd, "character degrees of PSL(2,q) extended by --outer")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--outer", default="", help='generators, e.g. "delta,phi^1" (empty: S itself)')

    p = add("check", _cmd_check, "two-prime condition on a comma-separated degree list")
    p.add_argument("--degrees", required=True)

    p = add("maximals", _cmd_maximals, "maximal subgroup catalog for PSL(2,q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--pgl", action="store_true", help="PGL(2,q) specials (q = 7 or 11)")

    p = add("classify", _cmd_classify, "verdict and row matching for one group")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--outer", required=True)

    p = add("sweep", _cmd_sweep, "classification sweep over a range of prime powers")
    p.add_argument("--qmin", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None, help="N >= 1, accepted and ignored: sweeps run serially")

    p = add("facts", _cmd_facts, "verify the registered number-theoretic facts")
    p.add_argument("--fact", choices=sorted(FACTS), default=None)
    p.add_argument("--limit", type=int, default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.handler(args)
        if sys.stdout is sys.__stdout__:
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does.  Point fd 1 at devnull
        # so that the flush at exit cannot raise again (the SIGPIPE note in
        # Python's signal module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller range", file=sys.stderr)
        return 2
    except SystemExit as exc:  # -h prints its help to stdout
        return int(exc.code or 0)
