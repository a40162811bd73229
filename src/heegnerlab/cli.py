"""Command-line front end: reproducible batch commands with JSON/CSV output.

Exit codes: 0 success, 1 verification failure or failed internal check,
2 usage or precondition error.
Payloads contain no timestamps, so identical invocations are byte-identical;
`--meta` wraps a JSON payload in a separate metadata envelope.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .bounds import (
    admissibility_report,
    growth_exponent_estimate,
    irr_bound_certificate,
    sandwich_check,
)
from .cycles import (
    cubic_heegner_index,
    embed_k3_lattice,
    gm_heegner_index,
    gm_residue_vector,
    hk_heegner_index,
)
from .discriminant import discriminant_group
from .intlinalg import checked_int
from .lattices import NAMED_LATTICES, IntegerLattice, build_named_lattice
from .weil import build_weil_rep, relations_pass, verify_sl2_relations

ENV_CAP = "HEEGNER_LAB_CAP"
OUTPUT_FLAGS = ("--format", "--out", "--meta")  # the options of every leaf command
# --d/--n/--delta: every named-lattice parameter, in order of first use
_PARAM_FLAGS = tuple(dict.fromkeys(p for takes in NAMED_LATTICES.values() for p in takes))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")
    common.add_argument("--meta", action="store_true", help="wrap the payload in a metadata envelope")
    named = argparse.ArgumentParser(add_help=False)
    named.add_argument("--name", required=True)
    for flag in _PARAM_FLAGS:
        named.add_argument(f"--{flag}", type=int, default=None)

    # --format/--out/--meta belong to each leaf command, so they follow it
    parser = argparse.ArgumentParser(prog="heegnerlab")
    sub = parser.add_subparsers(dest="command", required=True)

    lattice = sub.add_parser("lattice").add_subparsers(dest="subcommand", required=True)
    lattice.add_parser("info", parents=[common, named])

    weil = sub.add_parser("weil").add_subparsers(dest="subcommand", required=True)
    check = weil.add_parser("check", parents=[common, named])
    check.add_argument("--tol", type=float, default=1e-9)

    heegner = sub.add_parser("heegner").add_subparsers(dest="subcommand", required=True)
    cubic = heegner.add_parser("cubic", parents=[common])
    cubic.add_argument("--d", type=int, required=True)
    gm = heegner.add_parser("gm", parents=[common])
    gm.add_argument("--d", type=int, required=True)
    hk = heegner.add_parser("hk", parents=[common])
    hk.add_argument("--n", type=int, required=True)
    hk.add_argument("--delta", type=int, required=True)
    hk.add_argument("--d", type=int, required=True)

    embed = sub.add_parser("embed", parents=[common])
    embed.add_argument("--d", type=int, required=True)

    admissible = sub.add_parser("admissible", parents=[common])
    selector = admissible.add_mutually_exclusive_group(required=True)
    selector.add_argument("--d", type=int, default=None)
    selector.add_argument("--g", type=int, default=None)
    selector.add_argument("--g-range", dest="g_range", default=None)
    admissible.add_argument("--n-max", dest="n_max", type=int, default=10)

    bound = sub.add_parser("bound", parents=[common])
    selector = bound.add_mutually_exclusive_group(required=True)
    selector.add_argument("--g", type=int, default=None)
    selector.add_argument("--g-range", dest="g_range", default=None)
    bound.add_argument("--n-max", dest="n_max", type=int, default=10)

    growth = sub.add_parser("growth").add_subparsers(dest="subcommand", required=True)
    sandwich = growth.add_parser("sandwich", parents=[common])
    sandwich.add_argument("--k", type=int, required=True)
    sandwich.add_argument("--m-max", dest="m_max", type=int, required=True)
    sandwich.add_argument("--m-min", dest="m_min", type=int, default=1)
    estimate = growth.add_parser("estimate", parents=[common])
    estimate.add_argument("--series-file", dest="series_file", default=None)
    return parser


def _named_lattice_from_args(args) -> IntegerLattice:
    name = args.name
    takes = NAMED_LATTICES.get(name, ())
    if any(getattr(args, flag) is None for flag in takes):
        raise ValueError(f"{name} requires {' and '.join('--' + flag for flag in takes)}")
    if name in NAMED_LATTICES:
        for flag in _PARAM_FLAGS:
            if flag not in takes and getattr(args, flag) is not None:
                raise ValueError(f"{name} takes no --{flag}")
    return build_named_lattice(name, *(getattr(args, flag) for flag in takes))


def _hard_cap() -> int | None:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{ENV_CAP} must be a positive integer, got {raw!r}")
    return cap


def _parse_range(text: str) -> range:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"range must look like A:B, got {text!r}") from exc
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def run_lattice_info(args) -> tuple[dict, int]:
    lattice = _named_lattice_from_args(args)
    group = discriminant_group(lattice, hard_cap=_hard_cap())
    doc = lattice.to_jsonable()
    doc["det"] = lattice.det
    doc["disc_group"] = group.to_jsonable()
    doc["disc_group"]["mode"] = group.q_mode
    doc["level"] = group.level
    return doc, 0


def run_weil_check(args) -> tuple[dict, int]:
    lattice = _named_lattice_from_args(args)
    p, q = lattice.signature
    if q != 2 or p % 2 != 0:
        raise ValueError(
            f"weil check needs signature (m, 2) with m even; {lattice.name} has {lattice.signature}"
        )
    group = discriminant_group(lattice, hard_cap=_hard_cap())
    rep = build_weil_rep(group, p)
    checks = verify_sl2_relations(rep, tol=args.tol)
    doc = {
        "name": lattice.name,
        "m": p,
        "weight": rep.weight,
        "level": rep.level,
        "dim": rep.dim,
        "tol": args.tol,
        "relations": [c.to_jsonable() for c in checks],
        "pass": relations_pass(checks),
    }
    return doc, 0 if relations_pass(checks) else 1


def run_heegner(args) -> tuple[dict, int]:
    if args.subcommand == "cubic":
        return {"d": args.d, "index": cubic_heegner_index(args.d).to_jsonable()}, 0
    if args.subcommand == "gm":
        return {
            "d": args.d,
            "indices": [i.to_jsonable() for i in gm_heegner_index(args.d)],
            "labellings": [w.to_jsonable() for w in gm_residue_vector(args.d)],
        }, 0
    family = hk_heegner_index(args.n, args.delta, args.d)
    return family.to_jsonable(), 0


def run_embed(args) -> tuple[dict, int]:
    witness = embed_k3_lattice(args.d)
    return witness.to_jsonable(), 0 if witness.det_check_passed and witness.image_primitive else 1


def _sweep(text: str, make):
    """make(g) -> (record, exit code) for every genus g of the range A:B, in
    order, made one at a time.  The last genus is made first and held, so a
    top past a bound fails before any output, and no genus is made twice."""
    genera = _parse_range(text)
    last = make(genera[-1])
    for g in genera[:-1]:
        yield make(g)
    yield last


def run_admissible(args) -> tuple[object, int]:
    if args.d is not None:
        return admissibility_report(args.d, args.n_max), 0

    def reported(g):
        return admissibility_report(2 * checked_int(g, "g", 2) - 2, args.n_max), 0

    return reported(args.g) if args.g is not None else (_sweep(args.g_range, reported), 0)


def run_bound(args) -> tuple[object, int]:
    def certified(g):
        cert = irr_bound_certificate(g, args.n_max)
        # exit 1 when a uniform route's witness fails its det check, as `embed` does
        return cert, int(any(not route.extras.get("det_check_pass", True) for route in cert.routes))

    return certified(args.g) if args.g is not None else (_sweep(args.g_range, certified), 0)


def run_growth(args) -> tuple[object, int]:
    if args.subcommand == "sandwich":
        report = sandwich_check(args.k, (args.m_min, args.m_max))
        return report, 0 if report.passed else 1
    if args.series_file is None:
        raw = sys.stdin.read()
    else:
        with open(args.series_file) as fh:
            raw = fh.read()
    series = json.loads(raw)
    if not isinstance(series, list):
        raise ValueError("the series must be a JSON list of [index, value] pairs")
    slope = growth_exponent_estimate(series)
    return {"count": len(series), "slope": slope}, 0


def _jsonable(obj):
    return obj.to_jsonable() if hasattr(obj, "to_jsonable") else obj


def _csv(items, header: bool = True) -> str:
    if not all(hasattr(x, "rows") for x in items):
        raise ValueError("csv output is only available for flat reports (admissible, growth sandwich)")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(("input", "clause", "pass"))
    for item in items:
        writer.writerows(item.rows())
    return buf.getvalue()


def _render(payload, args) -> str:
    if args.format == "csv":
        return _csv(payload if isinstance(payload, list) else [payload])
    doc = [_jsonable(x) for x in payload] if isinstance(payload, list) else _jsonable(payload)
    if args.meta:
        envelope = {
            "payload": doc,
            "meta": {
                "tool": "heegnerlab",
                "version": __version__,
                "generated_at": datetime.now(timezone.utc).isoformat(),
            },
        }
        body = json.dumps(envelope, indent=2, sort_keys=False, allow_nan=False)
    else:
        body = json.dumps(doc, indent=2, sort_keys=False, allow_nan=False)
    return body + "\n"


def _write_sweep(pairs, args, out: "_Output") -> int:
    """Write the (record, exit code) pairs of a --g-range as they are made:
    one JSON line per record, or its CSV rows after one header.  `--meta`
    buffers them into one document.  Returns the largest exit code."""
    code, records = 0, []
    for i, (record, status) in enumerate(pairs):
        code = max(code, status)
        if args.meta:
            records.append(record)
        elif args.format == "csv":
            out.write(_csv([record], header=i == 0))
        else:
            out.write(json.dumps(_jsonable(record), sort_keys=False, allow_nan=False) + "\n")
    if args.meta:
        out.write(_render(records, args))
    return code


class _Output:
    """Standard output, or the --out file opened at the first write, so a
    command that fails before it writes leaves no file."""

    def __init__(self, path: str | None):
        self.path, self.fh = path, None

    def write(self, text: str) -> None:
        if self.fh is None:
            self.fh = open(self.path, "w") if self.path else sys.stdout
        self.fh.write(text)

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, *exc) -> None:
        if self.path and self.fh is not None:
            self.fh.close()


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse would blame the flag's value as an invalid subcommand
    for token in argv:
        if not token.startswith("-"):
            break
        flag = token.split("=", 1)[0]
        if flag in OUTPUT_FLAGS:
            parser.error(f"{flag} must follow the subcommand")
    args = parser.parse_args(argv)
    handlers = {
        "lattice": run_lattice_info,
        "weil": run_weil_check,
        "heegner": run_heegner,
        "embed": run_embed,
        "admissible": run_admissible,
        "bound": run_bound,
        "growth": run_growth,
    }
    try:
        if args.meta and args.format == "csv":
            raise ValueError("--meta wraps JSON output only; it cannot be combined with --format csv")
        with _Output(args.out) as out:
            payload, code = handlers[args.command](args)
            if getattr(args, "g_range", None) is None:
                out.write(_render(payload, args))
            else:
                code = _write_sweep(payload, args, out)
    except BrokenPipeError:
        # the reader stopped early, the usual way to end a long sweep; stdout
        # now points at devnull so the flush at shutdown raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
