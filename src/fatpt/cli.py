"""Command line interface.

One subcommand per pipeline stage: lattice arithmetic (reduce, decompose),
dimension counts (hilbert, resolution), splitting types (split,
predict-split, enumerate-exceptional, sweep) and cokernel verification
(verify-cokernel). Reports go to stdout as JSON (default) or TSV; progress
and diagnostics go to stderr only, so redirected stdout is always a clean
report.

Exit codes: 0 success, 1 computation infeasible at the configured size
ceiling, 2 invalid input, 3 conjecture violation detected.

The same inputs (including --prime/--seed, or their FATPT_PRIME/FATPT_SEED
environment fallbacks) produce byte-identical reports. Every JSON report
embeds the prime and seed it used, the list of classes whose splitting type
came from the randomized pipeline ("provisional"), and whether the values
rest on the dimension conjectures ("conjectural").

Each handler takes the parsed arguments alone. ``_resolve_job`` runs first:
it checks the ranges of --prime, --trials and --ceiling in that order, so
the same error comes first whichever of them are wrong, and writes the
resolved prime and seed onto the arguments. ``hilbert`` parses its own --deg
before anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .betti import assemble_resolution
from .cokernel import DEFAULT_COLUMN_CEILING, cok_dimension
from .errors import ConjectureViolation, InfeasibleError, InputError
from .exactla import DEFAULT_PRIME, check_prime
from .lattice import format_class, format_mults, parse_class, parse_mults
from .linsys import alpha_degree, decompose, hilbert, sanity_check_decomposition
from .splitting import (
    DEFAULT_SEED,
    clear_memo,
    forced_type,
    predict_report,
    split_bounds,
    splitting_of,
    splittings_of,
)
from .weyl import enumerate_exceptional, format_word
from . import weyl


def _int_token(text: str, origin: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{origin} {text!r}: not an integer") from None


def _parse_range(text: str, origin: str) -> tuple[int, int]:
    """Inclusive degree range "a..b", or a single degree "a"."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = _int_token(lo_s, origin), _int_token(hi_s, origin)
        if lo > hi:
            raise InputError(f"{origin} {text!r}: empty range")
        return lo, hi
    v = _int_token(text, origin)
    return v, v


def _resolve_job(args) -> None:
    """Check the option ranges in a fixed order and write the resolved prime
    and seed (the flag, else FATPT_PRIME / FATPT_SEED, else the default) onto
    ``args``."""
    if args.prime is None:
        raw = os.environ.get("FATPT_PRIME")
        args.prime = _int_token(raw, "FATPT_PRIME") if raw is not None else DEFAULT_PRIME
        origin = f"FATPT_PRIME {args.prime}"
    else:
        origin = f"--prime {args.prime}"
    try:
        check_prime(args.prime)
    except InputError as exc:
        raise InputError(f"{origin}: {exc}") from None

    if args.seed is None:
        raw = os.environ.get("FATPT_SEED")
        args.seed = _int_token(raw, "FATPT_SEED") if raw is not None else DEFAULT_SEED

    trials = getattr(args, "trials", 3)
    if trials < 1:
        raise InputError(f"--trials {trials}: the vote needs at least one trial")
    ceiling = getattr(args, "ceiling", DEFAULT_COLUMN_CEILING)
    if ceiling < 1:
        raise InputError(f"--ceiling {ceiling}: the H0 matrix needs at least one column")


def _value_cell(v) -> str:
    if v is None:
        return "?"
    if isinstance(v, list):
        return f"{v[0]}..{v[1]}"
    return str(v)


def _value_json(v):
    return list(v) if isinstance(v, tuple) else v


def _base_report(args, conjectural: bool, provisional=()) -> dict:
    return {
        "command": args.command,
        "prime": args.prime,
        "seed": args.seed,
        "conjectural": conjectural,
        "provisional": [format_class(c) for c in provisional],
    }


def _cmd_hilbert(args):
    degrees = None
    if args.deg is not None:
        lo, hi = _parse_range(args.deg, "--deg")
        degrees = range(lo, hi + 1)
    z = parse_mults(args.mults)
    rep = hilbert(z, degrees)
    rows = []
    for t in sorted(rep.entries):
        ent = rep.entries[t]
        rows.append(
            {
                "degree": t,
                "value": ent.value,
                "fixed": [
                    {"class": format_class(c), "multiplicity": k} for c, k in ent.fixed
                ],
            }
        )
    report = _base_report(args, conjectural=True)
    report.update({"scheme": format_mults(z), "alpha": rep.alpha, "rows": rows})
    tsv = (
        ("degree", "value", "fixed"),
        [
            (
                r["degree"],
                r["value"],
                " + ".join(f"{f['multiplicity']}*({f['class']})" for f in r["fixed"]) or "-",
            )
            for r in rows
        ],
    )
    return report, tsv, 0


def _cmd_resolution(args):
    z = parse_mults(args.mults)
    table = assemble_resolution(z, args.imax, args.prime, args.seed)
    rows = []
    for ent in table.entries:
        g = ent.generators if ent.generators is not None else ent.generators_interval
        s = ent.syzygies if ent.syzygies is not None else ent.syzygies_interval
        rows.append(
            {
                "degree": ent.degree,
                "generators": _value_json(g),
                "syzygies": _value_json(s),
                "flag": ent.flag,
            }
        )
    report = _base_report(args, conjectural=True, provisional=table.provisional)
    report.update(
        {
            "scheme": format_mults(z),
            "alpha": table.alpha,
            "regularity": table.regularity,
            "alpha_plus_one_path": table.alpha_plus_one_path,
            "rows": rows,
        }
    )
    tsv = (
        ("degree", "generators", "syzygies", "flag"),
        [(r["degree"], _value_cell(r["generators"]), _value_cell(r["syzygies"]), r["flag"]) for r in rows],
    )
    return report, tsv, 0


def _cmd_reduce(args):
    f = parse_class(args.cls)
    rf = weyl.reduce(f)
    report = _base_report(args, conjectural=False)
    report.update(
        {
            "input": format_class(f),
            "reduced": format_class(rf.reduced),
            "status": rf.status,
            "word": format_word(rf.word),
            "word_length": len(rf.word),
        }
    )
    return report, None, 0


def _cmd_decompose(args):
    f = parse_class(args.cls)
    dec = decompose(f)
    report = _base_report(args, conjectural=True)
    report["input"] = format_class(f)
    if dec is None:
        report.update({"effective": False, "status": weyl.reduce_class(f)[1]})
    else:
        sanity_check_decomposition(f, dec)
        report.update(
            {
                "effective": True,
                "free_part": format_class(dec.h),
                "components": [
                    {"class": format_class(c), "multiplicity": k}
                    for c, k in dec.components
                ],
                "boundary": dec.boundary,
            }
        )
    return report, None, 0


def _cmd_split(args):
    e = parse_class(args.cls)
    bounds = split_bounds(e)
    st, provisional = splitting_of(e, args.prime, args.seed, args.trials)
    report = _base_report(args, conjectural=False, provisional=(e,) if provisional else ())
    report.update(
        {
            "class": format_class(e),
            "degree": st.degree,
            "a": st.a,
            "b": st.b,
            "forced": not provisional,
            "candidates": [[c.a, c.b] for c in bounds],
            "trials": args.trials,
        }
    )
    return report, None, 0


def _cmd_predict_split(args):
    e = parse_class(args.cls)
    pred = predict_report(e, args.prime, args.seed, args.trials)
    report = _base_report(
        args, conjectural=True, provisional=(e,) if pred.provisional else ()
    )
    report.update(
        {
            "class": format_class(e),
            "type": [pred.type.a, pred.type.b],
            "defect": pred.defect,
            "score": pred.score,
            "rejected": [{"type": [t.a, t.b], "score": s} for t, s in pred.rejected],
        }
    )
    return report, None, 0


def _cmd_verify_cokernel(args):
    e = parse_class(args.cls)
    methods = ("formula", "oracle") if args.method == "both" else (args.method,)
    results = []
    verdicts = []
    for method in methods:
        v = cok_dimension(e, args.m, args.prime, args.seed, method, args.ceiling)
        verdicts.append(v)
        results.append(
            {
                "method": v.method,
                "computed": v.computed,
                "predicted": v.predicted,
                "match": v.match,
            }
        )
    first = verdicts[0]
    agree = all(v.match for v in verdicts) and len({v.computed for v in verdicts}) == 1
    report = _base_report(
        args, conjectural=False, provisional=(e,) if first.provisional else ()
    )
    report.update(
        {
            "class": format_class(e),
            "m": args.m,
            "splitting": [first.splitting.a, first.splitting.b],
            "results": results,
            "match": agree,
        }
    )
    return report, None, (0 if agree else 3)


def _cmd_enumerate(args):
    classes = enumerate_exceptional(args.max_degree)
    rows = []
    for e in classes:
        st = forced_type(e.t, max(e.m))
        rows.append(
            {
                "class": format_class(e),
                "degree": e.t,
                "forced": [st.a, st.b] if st is not None else None,
            }
        )
    report = _base_report(args, conjectural=False)
    report.update({"max_degree": args.max_degree, "count": len(classes), "rows": rows})
    tsv = (
        ("degree", "class", "a", "b"),
        [
            (
                r["degree"],
                r["class"],
                r["forced"][0] if r["forced"] else "-",
                r["forced"][1] if r["forced"] else "-",
            )
            for r in rows
        ],
    )
    return report, tsv, 0


# One enumerate-exceptional row and its forced type as ``json.dumps`` with
# indent=2 writes them inside the report.
_ENUM_ROW = '    {{\n      "class": {},\n      "degree": {},\n      "forced": {}\n    }}'
_ENUM_FORCED = "[\n        {},\n        {}\n      ]"


def _enumerate_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` for an
    enumerate-exceptional report. ``indent`` sends ``json.dumps`` to the
    pure-Python encoder, so the rows (17382 at degree 28, all of one shape)
    are written here; the rest of the report goes through ``json.dumps``
    with empty rows, and its one top-level ``"rows": []`` line is replaced."""
    text = json.dumps({**report, "rows": []}, indent=2, sort_keys=True)
    if not report["rows"]:
        return text
    enc = json.encoder.encode_basestring_ascii
    rows = ",\n".join(
        _ENUM_ROW.format(
            enc(r["class"]),
            r["degree"],
            "null" if r["forced"] is None else _ENUM_FORCED.format(*r["forced"]),
        )
        for r in report["rows"]
    )
    return text.replace('\n  "rows": []', f'\n  "rows": [\n{rows}\n  ]', 1)


def _cmd_sweep(args):
    classes = enumerate_exceptional(args.max_degree)
    classified = splittings_of(classes, args.prime, args.seed, args.trials)
    escapes = []
    provisional = []
    for e, (st, prov) in zip(classes, classified):
        # Forced and near-balanced types are covered by the proven
        # multiplication-rank cases; the rest escape.
        if prov:
            provisional.append(e)
            if st.b - st.a > 2:
                escapes.append((e, st))
    rows = [
        {"class": format_class(e), "degree": e.t, "a": st.a, "b": st.b}
        for e, st in escapes
    ]
    report = _base_report(args, conjectural=False, provisional=provisional)
    report.update(
        {
            "max_degree": args.max_degree,
            "total": len(classes),
            "guaranteed": len(classes) - len(escapes),
            "escapes": rows,
        }
    )
    code = 0
    tsv_rows = [(r["degree"], r["class"], r["a"], r["b"], "escape") for r in rows]
    if args.verify:
        verification = []
        for k, (e, st) in enumerate(escapes, 1):
            row = {"class": format_class(e), "m": st.b}
            try:
                v = cok_dimension(
                    e, st.b, args.prime, args.seed, "formula", args.ceiling, args.trials
                )
                row.update(predicted=v.predicted, computed=v.computed, match=v.match)
            except InfeasibleError as exc:
                row["skipped"] = str(exc)
            sys.stderr.write(f"verified {k}/{len(escapes)}: {row['class']}\n")
            verification.append(row)
        violations = [r for r in verification if not r.get("match", True) and "skipped" not in r]
        report["verification"] = verification
        report["violations"] = len(violations)
        if violations:
            code = 3
        tsv_rows = []
        for r, row in zip(rows, verification):
            status = "skipped" if "skipped" in row else ("ok" if row["match"] else "VIOLATION")
            tsv_rows.append((r["degree"], r["class"], r["a"], r["b"], status))
    tsv = (("degree", "class", "a", "b", "status"), tsv_rows)
    return report, tsv, code


_HANDLERS = {
    "hilbert": _cmd_hilbert,
    "resolution": _cmd_resolution,
    "reduce": _cmd_reduce,
    "decompose": _cmd_decompose,
    "split": _cmd_split,
    "predict-split": _cmd_predict_split,
    "verify-cokernel": _cmd_verify_cokernel,
    "enumerate-exceptional": _cmd_enumerate,
    "sweep": _cmd_sweep,
}


def _add_common(sub, fmt: bool = False):
    sub.add_argument("--prime", type=int, default=None, help="field characteristic")
    sub.add_argument("--seed", type=int, default=None, help="random seed")
    if fmt:
        sub.add_argument("--format", choices=("json", "tsv"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatpt",
        description="Hilbert functions, resolutions and splitting types for "
        "fat point schemes at general points of the plane.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("hilbert", help="expected ideal dimensions by degree")
    s.add_argument("--mults", required=True, help='multiplicities, e.g. "5,5,4x3"')
    s.add_argument("--deg", default=None, help='degree range "a..b" (default alpha-2..alpha+2)')
    _add_common(s, fmt=True)

    s = subs.add_parser("resolution", help="expected graded Betti numbers")
    s.add_argument("--mults", required=True)
    s.add_argument("--imax", type=int, default=None, help="last degree (default regularity+2)")
    _add_common(s, fmt=True)

    s = subs.add_parser("reduce", help="Cremona reduction of a divisor class")
    s.add_argument("--class", dest="cls", required=True, help='class "t;m1,...,mn"')
    _add_common(s)

    s = subs.add_parser("decompose", help="free/fixed part of a divisor class")
    s.add_argument("--class", dest="cls", required=True)
    _add_common(s)

    s = subs.add_parser("split", help="splitting type of an exceptional class")
    s.add_argument("--class", dest="cls", required=True)
    s.add_argument("--trials", type=int, default=3)
    _add_common(s)

    s = subs.add_parser("predict-split", help="defect-based splitting prediction")
    s.add_argument("--class", dest="cls", required=True)
    s.add_argument("--trials", type=int, default=3)
    _add_common(s)

    s = subs.add_parser("verify-cokernel", help="multiplication map cokernel check")
    s.add_argument("--class", dest="cls", required=True)
    s.add_argument("--m", type=int, required=True, help="neighborhood multiplicity")
    s.add_argument("--method", choices=("formula", "oracle", "both"), default="formula")
    s.add_argument("--ceiling", type=int, default=DEFAULT_COLUMN_CEILING)
    _add_common(s)

    s = subs.add_parser("enumerate-exceptional", help="exceptional classes by degree")
    s.add_argument("--max-degree", type=int, required=True)
    _add_common(s, fmt=True)

    s = subs.add_parser("sweep", help="classify and optionally verify all types")
    s.add_argument("--max-degree", type=int, required=True)
    s.add_argument("--verify", action="store_true", help="check escapes at m = b")
    s.add_argument("--trials", type=int, default=3)
    s.add_argument("--ceiling", type=int, default=DEFAULT_COLUMN_CEILING)
    _add_common(s, fmt=True)

    return parser


_PARSER = _build_parser()


def run(argv=None) -> int:
    """Parse, dispatch, print the report; returns the exit code. Splitting
    types and alpha degrees are memoized within one request only."""
    clear_memo()
    alpha_degree.cache_clear()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _resolve_job(args)
        report, tsv, code = _HANDLERS[args.command](args)
        if getattr(args, "format", "json") == "tsv":
            header, rows = tsv
            lines = ["\t".join(str(v) for v in header)]
            lines.extend("\t".join(str(v) for v in row) for row in rows)
            sys.stdout.write("\n".join(lines) + "\n")
        elif args.command == "enumerate-exceptional":
            sys.stdout.write(_enumerate_json(report) + "\n")
        else:
            sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return code
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 1
    except ConjectureViolation as exc:
        sys.stderr.write(f"conjecture violation: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
