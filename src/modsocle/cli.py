"""Command-line front end: construct or ingest groups, run the analyses and
theorem suites, and emit deterministic JSON reports.

Exit codes: 0 success, 1 claim disagreement or census assertion failure,
2 parse or I/O error, including an input group that cannot be built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .algebra import group_algebra
from .catalog import CatalogData, builtin_catalog, load_catalog_dir
from .constructors import (
    abelian,
    cyclic,
    dihedral_group,
    extraspecial_27_exp3,
    family,
    heisenberg,
    holomorph_cyclic,
    int_matrix,
    parse_group,
    semidirect,
    smallgroup_216_86,
)
from .errors import (
    CensusMismatchError,
    InvalidActionError,
    ModsocleError,
    ModulusTooLargeError,
    NotAGroupError,
    OrderTooSmallError,
    ParseError,
)
from .fplin import validate_prime
from .groups import (
    FiniteGroup,
    center,
    derived_subgroup,
    frattini_subgroup,
    is_p_group,
    normal_subgroups,
    p_core,
    p_residual,
    pprime_core,
    quotient,
    two_element_class_subgroup,
)
from .verify import (
    nilpotency_class_or_none,
    run_census,
    verify_central_decomposition,
    verify_isoclinism_pair,
    verify_pgroup_classification,
    verify_quotient_and_product_closure,
    verify_reynolds_criterion,
    verify_sufficient_conditions,
    y_criterion,
)

SUITES = ("all", "A", "B", "C", "D", "isoclinism")

# Errors of building an input group that say the input is malformed.
_BAD_INPUT = (ValueError, OrderTooSmallError, NotAGroupError, InvalidActionError)


def dumps_canonical(document: dict, indent: int | None = 2) -> str:
    """Stable serialization: sorted keys, no timestamps, byte-reproducible."""
    return json.dumps(document, sort_keys=True, indent=indent)


def group_from_spec(spec: str) -> FiniteGroup:
    """Compact group spec grammar for scriptable runs.

    Forms: cyclic:N, abelian:2x4, dihedral:N, semidihedral:N, quaternion:N,
    extraspecial:27, heisenberg:P, holomorph:N (alias holomorph-c8),
    smallgroup:216-86, name:<builtin name>, file:PATH, semidirect:@PATH.
    A constructor's `ValueError` (such as cyclic:0), `OrderTooSmallError`
    (quaternion:8), `NotAGroupError` (a file whose table is not a group) or
    `InvalidActionError` (a semidirect action that is not a homomorphism
    into Aut(N)) becomes a `ParseError`.
    """
    try:
        return _build_group(spec.strip())
    except _BAD_INPUT as exc:
        raise ParseError(f"bad group spec {spec!r}: {exc}") from exc


def _build_group(spec: str) -> FiniteGroup:
    if spec == "holomorph-c8":
        return holomorph_cyclic(8)
    if spec in ("smallgroup-216-86", "smallgroup:216-86", "smallgroup:216,86"):
        return smallgroup_216_86()
    if spec in ("extraspecial27", "extraspecial:27"):
        return extraspecial_27_exp3()
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ParseError(f"unrecognized group spec {spec!r}")
    if head == "cyclic":
        return cyclic(_int(rest))
    if head == "abelian":
        return abelian([_int(v) for v in rest.split("x")])
    if head == "dihedral":
        return dihedral_group(_int(rest))
    if head in ("semidihedral", "quaternion"):
        return family(head, _int(rest))
    if head == "heisenberg":
        return heisenberg(_int(rest))
    if head == "holomorph":
        return holomorph_cyclic(_int(rest))
    if head == "name":
        for name, group in builtin_catalog():
            if name == rest:
                return group
        raise ParseError(f"no builtin group named {rest!r}")
    if head == "file":
        return _group_from_file(Path(rest))
    if head == "semidirect":
        if not rest.startswith("@"):
            raise ParseError("semidirect spec must reference a descriptor file: semidirect:@PATH")
        return _semidirect_from_file(Path(rest[1:]))
    raise ParseError(f"unrecognized group spec {spec!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _prime(text: str) -> int:
    value = _positive_int(text)
    try:
        return validate_prime(value)
    except (ValueError, ModulusTooLargeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"expected an integer, got {text!r}") from exc


def _group_from_file(path: Path) -> FiniteGroup:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return parse_group(doc)


def _semidirect_from_file(path: Path) -> FiniteGroup:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read semidirect descriptor {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("semidirect descriptor must be a JSON object")
    normal = group_from_spec(doc["normal"]) if isinstance(doc.get("normal"), str) \
        else parse_group(doc.get("normal"))
    complement = group_from_spec(doc["complement"]) if isinstance(doc.get("complement"), str) \
        else parse_group(doc.get("complement"))
    action = int_matrix(doc.get("action"), "semidirect action")
    name = doc.get("name", f"{normal.name}x|{complement.name}")
    if not isinstance(name, str):
        raise ParseError("semidirect descriptor name must be a JSON string")
    return semidirect(normal, complement, action, name=name)


def analysis_document(group: FiniteGroup, p: int) -> dict:
    alg = group_algebra(group, p)
    der = derived_subgroup(group)
    core = p_core(group, p)
    nclass = nilpotency_class_or_none(group)
    return {
        "schema": "modsocle.analysis/1",
        "tool_version": __version__,
        "prime": p,
        "group": {"name": group.name, "order": group.order, "hash": group.hash_digest()},
        "orders": {
            "center": center(group).order,
            "derived": der.order,
            "frattini": frattini_subgroup(group).order,
            "p_core": core.order,
            "pprime_core": pprime_core(group, p).order,
            "p_residual": p_residual(group, p).order,
            "two_element_class_subgroup": two_element_class_subgroup(group).order,
        },
        "dimensions": {
            "center": alg.center_dim,
            "jacobson_center": alg.jacobson_center.dim,
            "socle_center": alg.socle_center.dim,
            "reynolds": alg.reynolds_center.dim,
            "derived_coset_space": group.order // der.order,
        },
        "verdicts": {
            "socle_ideal": alg.soc_is_ideal,
            "reynolds_ideal": alg.reynolds_is_ideal,
            "semisimple": group.order % p != 0,
        },
        "criteria": {
            "abelian": group.is_abelian,
            "nilpotency_class": nclass,
            "class_at_most_two": nclass is not None and nclass <= 2,
            "derived_in_p_core": der.members <= core.members,
            "two_element_class_criterion": y_criterion(group),
        },
    }


def _render_markdown(doc: dict) -> str:
    lines = [f"# {doc['group']['name']} at p = {doc['prime']}", ""]
    for section in ("orders", "dimensions", "verdicts", "criteria"):
        lines.append(f"## {section}")
        for key in sorted(doc[section]):
            lines.append(f"- {key}: {doc[section][key]}")
        lines.append("")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    group = group_from_spec(args.group)
    doc = analysis_document(group, args.prime)
    if args.format == "md":
        print(_render_markdown(doc))
    else:
        print(dumps_canonical(doc))
    return 0


def _load_catalog(catalog_dir: str) -> CatalogData:
    try:
        return load_catalog_dir(catalog_dir)
    except _BAD_INPUT as exc:
        raise ParseError(f"bad catalog {catalog_dir}: {exc}") from exc


def _catalog_entries(catalog_dir: str | None) -> list:
    entries = list(builtin_catalog())
    if catalog_dir:
        entries.extend(_load_catalog(catalog_dir).entries)
    return entries


def _suite_reports(suite: str, entries, p: int):
    def p_groups():
        for name, g in entries:
            if g.order > 1 and is_p_group(g.order, p):
                yield name, g

    if suite in ("A", "all"):
        for _, g in entries:
            yield verify_reynolds_criterion(g, p)
    if suite in ("B", "all"):
        for _, g in p_groups():
            yield verify_pgroup_classification(g, p)
    if suite in ("C", "all"):
        for _, g in entries:
            yield verify_sufficient_conditions(g, p)
    if suite in ("D", "all"):
        for _, g in entries:
            yield verify_central_decomposition(g, p)
    # by name from the builtin catalog, not from `entries`, whose --catalog
    # groups may reuse these names
    builtin = dict(builtin_catalog())
    if suite in ("isoclinism", "all"):
        for order in (16, 32):
            trio = [builtin[f"{kind}{order}"] for kind in ("D", "SD", "Q")]
            for i in range(len(trio)):
                for j in range(i + 1, len(trio)):
                    yield verify_isoclinism_pair(trio[i], trio[j], p)
    if suite == "all":
        g = builtin["D32"]
        while g.order > 4:
            z = center(g)
            yield verify_quotient_and_product_closure(g, p, n_sub=z)
            g, _ = quotient(g, z)
        d16 = builtin["D16"]
        for n_sub in normal_subgroups(d16):
            if 1 < n_sub.order < d16.order:
                yield verify_quotient_and_product_closure(d16, p, n_sub=n_sub)


def cmd_verify(args) -> int:
    entries = _catalog_entries(args.catalog)
    failures = 0
    for report in _suite_reports(args.suite, entries, args.prime):
        print(dumps_canonical(report.to_dict(), indent=None))
        if not report.all_agree:
            failures += 1
            print(f"DISAGREEMENT: {report.group_name} at p={args.prime}", file=sys.stderr)
            print(dumps_canonical(report.to_dict()), file=sys.stderr)
    return 1 if failures else 0


def cmd_census(args) -> int:
    if args.catalog:
        data = _load_catalog(args.catalog)
        entries, catalog_id, tags = data.entries, data.catalog_id, data.tags
    else:
        entries, catalog_id, tags = builtin_catalog(), "builtin", ()
    try:
        summary = run_census(entries, args.prime, catalog_id=catalog_id, tags=tags)
    except CensusMismatchError as exc:
        print(f"census assertion failed: {exc}", file=sys.stderr)
        return 1
    print(dumps_canonical(summary.to_dict()))
    return 0 if summary.all_agree else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modsocle",
        description="Socle-of-the-center and Reynolds ideal computations for "
                    "modular group algebras.")
    parser.add_argument("--version", action="version", version=f"modsocle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="orders, dimensions and verdicts for one group")
    an.add_argument("group", help="group spec, e.g. dihedral:16 or file:groups/g.json")
    an.add_argument("--prime", type=_prime, required=True)
    an.add_argument("--format", choices=("json", "md"), default="json")
    an.set_defaults(func=cmd_analyze)

    ve = sub.add_parser("verify", help="run a theorem suite over the catalog")
    ve.add_argument("--suite", choices=SUITES, default="all",
                    help="A: Reynolds criterion, B: p-group classification, "
                         "C: sufficient conditions, D: central decomposition")
    ve.add_argument("--prime", type=_prime, required=True)
    ve.add_argument("--catalog", default=os.environ.get("MODSOCLE_CATALOG"),
                    help="directory of extra group files (env MODSOCLE_CATALOG)")
    ve.set_defaults(func=cmd_verify)

    ce = sub.add_parser("census", help="predicate counts over a catalog")
    ce.add_argument("--prime", type=_prime, required=True)
    ce.add_argument("--catalog", default=os.environ.get("MODSOCLE_CATALOG"),
                    help="directory of group files (env MODSOCLE_CATALOG); "
                         "defaults to the builtin catalog")
    ce.set_defaults(func=cmd_census)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModsocleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
