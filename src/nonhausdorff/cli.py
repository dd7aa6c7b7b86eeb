"""Batch command line front end.

Commands read a system document (JSON), run the requested computation and
print a human table or, with --json, a machine report.  Exit codes: 0 ok,
1 validation failure, 2 precondition failure, 3 I/O or parse error.  Every
command but ``validate`` first requires a valid system; the commands are
dispatched from the COMMANDS table.  Each command imports the modules it
runs when it runs, so a cold start loads only those.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, Any, Callable

from .adjunction import (
    glued_cell_classes,
    hausdorff_pairs,
    closure_intersection_check,
    nerve,
    regular_open_check,
    validate_system,
)
from .errors import IncompatibleCochainError, PreconditionError, SchemaError, ValidationReport
from .schema import LoadedSystem, parse_cochain_document, parse_document

if TYPE_CHECKING:
    from .cochains import GlobalCochain

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PRECONDITION = 2
EXIT_IO = 3

# --flavor value -> name of the cohomology.Flavor member
FLAVORS = {"dr": "CLOSED_INTERSECTION", "sing": "OPEN_CORE"}


def _load(path: str) -> LoadedSystem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_document(doc)


def _load_cochain(loaded: LoadedSystem, path: str) -> GlobalCochain:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return parse_cochain_document(doc, loaded.system, loaded.system.names)


def _report(command: str, status: str, payload: Any, diagnostics: list[str]) -> dict:
    return {
        "command": command,
        "schema_version": "1",
        "status": status,
        "payload": payload,
        "diagnostics": diagnostics,
    }


class _Output:
    def __init__(self, as_json: bool, quiet: bool):
        self.as_json = as_json
        self.quiet = quiet

    def emit(self, report: dict, human: str) -> None:
        if self.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        elif not self.quiet:
            print(human)


def _tuple_label(loaded: LoadedSystem, tup: tuple[int, ...]) -> str:
    return "(" + ",".join(loaded.system.names[i] for i in tup) + ")"


def _pair_label(loaded: LoadedSystem, pair: tuple[int, int]) -> str:
    return f"{loaded.system.names[pair[0]]}~{loaded.system.names[pair[1]]}"


# -- commands -----------------------------------------------------------------


def _issues(report: ValidationReport) -> list[dict[str, str]]:
    return [{"rule": i.rule, "location": i.location, "message": i.message} for i in report.issues]


def cmd_validate(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    report = validate_system(loaded.system)
    payload: dict[str, Any] = {"valid": report.ok, "issues": _issues(report)}
    lines = ["validate: " + ("OK" if report.ok else "INVALID")]
    failed = not report.ok
    if failed:
        lines.extend("  " + i.render() for i in report.issues)
    else:
        closure_checks = closure_intersection_check(loaded.system)
        regular = regular_open_check(loaded.system)
        payload["closure_intersection"] = {
            _tuple_label(loaded, t): v for t, v in sorted(closure_checks.items())
        }
        payload["regular_open"] = {_pair_label(loaded, p): v for p, v in sorted(regular.items())}
        lines.append(f"  closure-intersection: {payload['closure_intersection']}")
        lines.append(f"  regular-open: {payload['regular_open']}")
        if loaded.metrics is not None:
            from . import geometry

            metric_report = geometry.validate_metric(loaded.system, loaded.metrics)
            payload["metric_valid"] = metric_report.ok
            payload["issues"].extend(_issues(metric_report))
            lines.append(f"  metric: {'OK' if metric_report.ok else 'INVALID'}")
            failed = not metric_report.ok
            lines.extend("  " + i.render() for i in metric_report.issues)
    status = "validation_failed" if failed else "ok"
    out.emit(_report("validate", status, payload, []), "\n".join(lines))
    return EXIT_VALIDATION if failed else EXIT_OK


def _require_valid(loaded: LoadedSystem, command: str, out: _Output) -> bool:
    report = validate_system(loaded.system)
    if report.ok:
        return True
    payload = {"valid": False, "issues": _issues(report)}
    human = f"{command}: system is invalid\n" + "\n".join("  " + i.render() for i in report.issues)
    out.emit(_report(command, "validation_failed", payload, []), human)
    return False


def cmd_hausdorff(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    pairs = hausdorff_pairs(loaded.system)
    classes = glued_cell_classes(loaded.system)
    sizes: dict[int, int] = {}
    for cls in classes.classes:
        sizes[len(cls)] = sizes.get(len(cls), 0) + 1
    payload = {
        "pairs": [
            {
                "left": [loaded.system.names[p.left[0]], p.left[1]],
                "right": [loaded.system.names[p.right[0]], p.right[1]],
            }
            for p in pairs
        ],
        "class_count": len(classes),
        "class_size_histogram": {str(k): v for k, v in sorted(sizes.items())},
    }
    lines = [f"hausdorff-violating pairs: {len(pairs)}"]
    for p in pairs:
        lines.append(
            f"  {loaded.system.names[p.left[0]]}:{p.left[1]}  ~  "
            f"{loaded.system.names[p.right[0]]}:{p.right[1]}"
        )
    lines.append(f"glued cell classes: {len(classes)} (sizes {payload['class_size_histogram']})")
    out.emit(_report("hausdorff", "ok", payload, []), "\n".join(lines))
    return EXIT_OK


def cmd_betti(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    from . import cohomology

    flavor_key = args.flavor
    system = loaded.system
    if flavor_key == "dr":
        values = cohomology.de_rham_betti(system)
    else:
        flavor = cohomology.Flavor[FLAVORS[flavor_key]]
        values = cohomology.total_betti(cohomology.build_bicomplex(system, flavor, loaded.cores))
    display = cohomology.trim_trailing_zeros(values)
    top = max(piece.top_dimension for piece in system.pieces)
    display += [0] * (top + 1 - len(display))
    payload = {"flavor": flavor_key, "betti": display}
    out.emit(_report("betti", "ok", payload, []), f"betti[{flavor_key}] = {display}")
    return EXIT_OK


def cmd_euler(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    from . import cohomology

    system, cores = loaded.system, loaded.cores
    entries = nerve(system)
    chi = cohomology.euler_inclusion_exclusion(system, cores, entries=entries)
    bicx = cohomology.build_bicomplex(system, cohomology.Flavor.OPEN_CORE, cores, entries=entries)
    betti_open = cohomology.total_betti(bicx)
    alternating = sum((-1) ** q * b for q, b in enumerate(betti_open))
    payload = {
        "inclusion_exclusion": chi,
        "alternating_betti_sum": alternating,
        "betti_open": cohomology.trim_trailing_zeros(betti_open),
        "match": chi == alternating,
    }
    human = (
        f"chi (inclusion-exclusion) = {chi}\n"
        f"chi (alternating Betti sum, open flavor) = {alternating}\n"
        f"match: {payload['match']}"
    )
    out.emit(_report("euler", "ok", payload, []), human)
    return EXIT_OK


def cmd_integrate(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    from . import cochains

    value = cochains.integrate(_load_cochain(loaded, args.cochain))
    payload = {"integral": str(value)}
    out.emit(_report("integrate", "ok", payload, []), f"integral = {value}")
    return EXIT_OK


def cmd_stokes_check(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    from . import cochains

    lhs, rhs = cochains.stokes_defect(_load_cochain(loaded, args.cochain))
    payload = {"integral_of_dw": str(lhs), "minus_frontier_integral": str(rhs), "equal": lhs == rhs}
    human = (
        f"integral of dw over the glued space = {lhs}\n"
        f"- (oriented frontier sum of w)      = {rhs}\n"
        f"equal: {lhs == rhs}"
    )
    out.emit(_report("stokes-check", "ok", payload, []), human)
    return EXIT_OK


def cmd_mv_report(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    from . import cohomology

    flavor_key = args.flavor
    flavor = cohomology.Flavor[FLAVORS[flavor_key]]
    report = cohomology.mv_report(loaded.system, flavor, loaded.cores)
    payload = {
        "flavor": flavor_key,
        "rows": [
            {
                "q": row.q,
                "h_glued": row.h_total,
                "h_pieces": row.h_pieces,
                "h_domain": row.h_domain,
                "rank_on_cohomology": row.rank_on_cohomology,
                "kernel_dim": row.kernel_dim,
                "coker_prev": row.coker_prev,
                "derived_h_glued": row.derived_h_total,
            }
            for row in report.rows
        ],
        "alternating_sum": report.alternating_sum,
        "exact": report.exact,
    }
    lines = [f"Mayer-Vietoris report ({flavor_key}):"]
    lines.append("  q  H(M)  H(pieces)  H(domain)  rank  ker  coker_prev  derived")
    for row in report.rows:
        lines.append(
            f"  {row.q}  {row.h_total:4d}  {row.h_pieces:9d}  {row.h_domain:9d}  "
            f"{row.rank_on_cohomology:4d}  {row.kernel_dim:3d}  {row.coker_prev:10d}  "
            f"{row.derived_h_total:7d}"
        )
    lines.append(f"  alternating dimension sum = {report.alternating_sum}")
    out.emit(_report("mv-report", "ok", payload, []), "\n".join(lines))
    return EXIT_OK


def cmd_compare(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    from . import cohomology

    report = cohomology.de_rham_compare(loaded.system, loaded.cores)
    dr = cohomology.trim_trailing_zeros(report.de_rham)
    sing = cohomology.trim_trailing_zeros(report.singular)
    width = max(len(dr), len(sing), 1)
    dr += [0] * (width - len(dr))
    sing += [0] * (width - len(sing))
    payload = {
        "de_rham": dr,
        "singular": sing,
        "verdict": "EQUAL" if report.equal else "UNEQUAL",
        "regular_open_regions": {
            _pair_label(loaded, p): v for p, v in sorted(report.regular_open_regions.items())
        },
        "regular_open_unions": {
            loaded.system.names[k]: v for k, v in sorted(report.regular_open_unions.items())
        },
        "closure_intersection_ok": report.closure_intersection_ok,
        "hypotheses_hold": report.hypotheses_hold,
    }
    human = (
        f"de Rham flavor:  {payload['de_rham']}\n"
        f"singular flavor: {payload['singular']}\n"
        f"verdict: {payload['verdict']}\n"
        f"regular-open regions: {payload['regular_open_regions']}\n"
        f"regular-open inductive unions: {payload['regular_open_unions']}\n"
        f"closure-intersection property: {report.closure_intersection_ok}\n"
        f"comparison hypotheses hold: {report.hypotheses_hold}"
    )
    out.emit(_report("compare", "ok", payload, []), human)
    return EXIT_OK


def cmd_gauss_bonnet(loaded: LoadedSystem, args: argparse.Namespace, out: _Output) -> int:
    if loaded.metrics is None:
        raise PreconditionError("gauss-bonnet: document carries no edge lengths")
    from . import geometry

    report = geometry.gauss_bonnet_report(loaded.system, loaded.metrics, loaded.cores)
    payload = {
        "chi": report.chi,
        "lhs_2_pi_chi": report.lhs,
        "half_total_curvature": report.curvature_half_integral,
        "counterterms": report.counterterms,
        "rhs": report.rhs,
        "residual": report.residual,
        "rows": [
            {
                "tuple": _tuple_label(loaded, row.tup),
                "sign": row.sign,
                "interior_defect_sum": row.interior_defect,
                "turning_sum": row.turning,
            }
            for row in report.rows
        ],
    }
    lines = ["Gauss-Bonnet ledger:"]
    lines.append("  tuple      sign  interior-defects   turnings")
    for row in report.rows:
        lines.append(
            f"  {_tuple_label(loaded, row.tup):10s} {row.sign:+d}   "
            f"{row.interior_defect: .12f}   {row.turning: .12f}"
        )
    lines.append(f"  chi = {report.chi}")
    lines.append(f"  lhs  = 2*pi*chi = {report.lhs:.12f}")
    lines.append(
        f"  rhs  = {report.curvature_half_integral:.12f} + {report.counterterms:.12f}"
        f" = {report.rhs:.12f}"
    )
    lines.append(f"  residual = {report.residual:.3e}")
    out.emit(_report("gauss-bonnet", "ok", payload, []), "\n".join(lines))
    return EXIT_OK


# -- entry point ----------------------------------------------------------------


Handler = Callable[[LoadedSystem, argparse.Namespace, _Output], int]

# name -> (handler, takes --flavor, takes a cochain document)
COMMANDS: dict[str, tuple[Handler, bool, bool]] = {
    "validate": (cmd_validate, False, False),
    "hausdorff": (cmd_hausdorff, False, False),
    "betti": (cmd_betti, True, False),
    "euler": (cmd_euler, False, False),
    "integrate": (cmd_integrate, False, True),
    "stokes-check": (cmd_stokes_check, False, True),
    "mv-report": (cmd_mv_report, True, False),
    "compare": (cmd_compare, False, False),
    "gauss-bonnet": (cmd_gauss_bonnet, False, False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonhausdorff",
        description="Exact cohomology and curvature ledgers for glued cell complexes.",
    )
    parser.add_argument("--json", action="store_true", help="emit a machine-readable report")
    parser.add_argument("--quiet", action="store_true", help="suppress human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_flavor, needs_cochain) in COMMANDS.items():
        p = sub.add_parser(name)
        if needs_flavor:
            p.add_argument("--flavor", choices=sorted(FLAVORS), required=True)
        p.add_argument("path", help="system document (JSON)")
        if needs_cochain:
            p.add_argument("cochain", help="cochain document (JSON)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output(args.json, args.quiet)
    try:
        loaded = _load(args.path)
        if args.command != "validate" and not _require_valid(loaded, args.command, out):
            return EXIT_VALIDATION
        handler = COMMANDS[args.command][0]
        return handler(loaded, args, out)
    except SchemaError as exc:
        _fail(out, args.command, "parse_error", str(exc))
        return EXIT_IO
    except OSError as exc:
        _fail(out, args.command, "io_error", str(exc))
        return EXIT_IO
    except json.JSONDecodeError as exc:
        _fail(out, args.command, "parse_error", f"line {exc.lineno} column {exc.colno}: {exc.msg}")
        return EXIT_IO
    except IncompatibleCochainError as exc:
        _fail(out, args.command, "validation_failed", str(exc))
        return EXIT_VALIDATION
    except PreconditionError as exc:
        _fail(out, args.command, "precondition_failed", str(exc))
        return EXIT_PRECONDITION


def _fail(out: _Output, command: str, status: str, message: str) -> None:
    report = _report(command, status, None, [message])
    if out.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{command}: {status}: {message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
