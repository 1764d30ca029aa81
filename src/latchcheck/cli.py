"""Command-line front end.

Exit codes are a contract: 0 means the check passed (or the construction
succeeded), 1 means a property or invariant failed with a located
report, 2 means the input was malformed (unreadable, bad schema, kind
mismatch, out-of-range index).  Machine-readable output is canonical
JSON; identical inputs and seeds produce byte-identical output.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Any

from .builtins_corpus import BUILTIN_NAMES, builtin
from .documents import DocumentError, canonical_json, load_path, to_document
from .pointed import PointedMap, PointedSet, epi_missed
from .reedy import (
    SetsAmbient,
    SimplicialSpectrum,
    SimplicialSpectrumMap,
    is_good,
    is_positive_good,
    is_reedy_cofibration,
    latch_of_simplicial_spectrum,
    realize,
    realize_map,
    reedy_cofibrant_report,
    pointwise_cofiber,
    reedy_corner,
    simplicial_latching,
    spectrum_ambient_for,
    validate_simplicial_spectrum,
    validate_simplicial_spectrum_map,
    view_of_simplicial_spectrum,
    view_of_sset,
)
from .reports import CheckReport, Witness
from .simplicial import (
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    validate_sset,
    validate_sset_map,
)
from .spectra import (
    COFIBRATION_TESTS,
    SpectrumMap,
    SymSpectrum,
    from_zero,
    latching_corner,
    spectral_latching,
    validate_spectrum,
    validate_spectrum_map,
)
from .suites import SUITE_ALIASES, run_suite

CHECK_PROPERTIES = (
    "levelwise", "positive-levelwise", "flat", "positive-flat",
    "good", "positive-good",
    "reedy-levelwise", "reedy-flat", "reedy-positive-flat", "reedy-positive-levelwise",
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _color_enabled(stream) -> bool:
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _verdict(word: str, ok: bool, stream) -> str:
    if _color_enabled(stream):
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _load_target(args) -> tuple[Any, str]:
    if getattr(args, "builtin", None):
        if args.builtin not in BUILTIN_NAMES:
            raise DocumentError(f"unknown builtin {args.builtin!r}; choose from {', '.join(BUILTIN_NAMES)}")
        return builtin(args.builtin), f"builtin '{args.builtin}'"
    if not getattr(args, "file", None):
        raise DocumentError("a document file or --builtin NAME is required")
    return load_path(args.file), f"file '{args.file}'"


def _deep_validate(obj: Any) -> CheckReport:
    if isinstance(obj, (PointedSet, PointedMap)):
        return CheckReport("structural", True, detail="tables validated on construction")
    if isinstance(obj, SimplicialSet):
        return validate_sset(obj)
    if isinstance(obj, SimplicialMap):
        for side in (obj.dom, obj.cod):
            rep = validate_sset(side)
            if not rep.passed:
                return rep
        return validate_sset_map(obj)
    if isinstance(obj, SymSpectrum):
        return validate_spectrum(obj)
    if isinstance(obj, SpectrumMap):
        for side in (obj.dom, obj.cod):
            rep = validate_spectrum(side)
            if not rep.passed:
                return rep
        return validate_spectrum_map(obj)
    if isinstance(obj, SimplicialSpectrum):
        return validate_simplicial_spectrum(obj)
    if isinstance(obj, SimplicialSpectrumMap):
        for side in (obj.dom, obj.cod):
            rep = validate_simplicial_spectrum(side)
            if not rep.passed:
                return rep
        return validate_simplicial_spectrum_map(obj)
    raise DocumentError(f"cannot validate objects of type {type(obj).__name__}")


def _load_valid(args) -> tuple[Any, str]:
    """Load the target of a computing command.

    Parsing checks only a document's structure, so a document file is
    deep-validated before anything is computed from it: one that breaks
    the axioms of its kind is malformed input.  Builtins are valid by
    construction.
    """
    obj, desc = _load_target(args)
    if not args.builtin:
        rep = _deep_validate(obj)
        if not rep.passed:
            raise DocumentError(f"the document is not a valid {rep.prop}: {rep.detail}")
    return obj, desc


def _run_check(obj: Any, prop: str) -> CheckReport:
    if prop in COFIBRATION_TESTS:
        if isinstance(obj, SymSpectrum):
            return COFIBRATION_TESTS[prop](from_zero(obj))
        if isinstance(obj, SpectrumMap):
            return COFIBRATION_TESTS[prop](obj)
        raise DocumentError(f"property {prop!r} needs a spectrum or spectrum-map document")
    if prop in ("good", "positive-good"):
        if not isinstance(obj, SimplicialSpectrum):
            raise DocumentError(f"property {prop!r} needs a simplicial-spectrum document")
        return is_good(obj) if prop == "good" else is_positive_good(obj)
    if prop.startswith("reedy-"):
        model = prop[len("reedy-"):]
        if isinstance(obj, SimplicialSpectrum):
            return reedy_cofibrant_report(obj, model)
        if isinstance(obj, SimplicialSpectrumMap):
            return is_reedy_cofibration(obj, model)
        raise DocumentError(
            f"property {prop!r} needs a simplicial-spectrum or simplicial-spectrum-map document")
    raise DocumentError(f"unknown property {prop!r}")


def _resolve_witness_map(obj: Any, prop: str, witness: Witness) -> PointedMap | None:
    """Recompute the single pointed map a witness points at, when the
    location scheme for the property supports it."""
    n = witness.locate("spectral_level")
    k = witness.locate("dim")
    degree = witness.locate("degree")
    idx = witness.locate("index")
    try:
        if prop in ("levelwise", "positive-levelwise"):
            f = from_zero(obj) if isinstance(obj, SymSpectrum) else obj
            if n is None or k is None:
                return None
            return f.components[n].components[k]
        if prop in ("flat", "positive-flat"):
            f = from_zero(obj) if isinstance(obj, SymSpectrum) else obj
            if n is None or k is None:
                return None
            return latching_corner(f, n).map.components[k]
        if prop in ("good", "positive-good"):
            if degree is None or n is None or k is None:
                return None
            if idx is not None:
                return obj.degens[degree][idx].components[n].components[k]
            return latching_corner(from_zero(obj.degrees[degree]), n).map.components[k]
        if prop.startswith("reedy-") and degree is not None and n is not None and k is not None:
            if isinstance(obj, SimplicialSpectrum):
                nu = latch_of_simplicial_spectrum(obj, degree).nu
            else:
                ambient = spectrum_ambient_for(obj.dom)
                nu = reedy_corner(view_of_simplicial_spectrum(obj.dom),
                                  view_of_simplicial_spectrum(obj.cod),
                                  lambda m: obj.components[m], degree, ambient).map
            return latching_corner(nu, n).map.components[k]
    except (IndexError, TruncationError):
        return None
    return None


def _replay(obj: Any, prop: str, witness_data: dict) -> tuple[bool, str]:
    witness = Witness.from_json(witness_data)
    fresh = _run_check(obj, prop)
    if fresh.passed or fresh.witness is None:
        return False, "check passes now; the witness is stale"
    same = (fresh.witness.location == witness.location and fresh.witness.pair == witness.pair)
    target = _resolve_witness_map(obj, prop, witness)
    i, j = witness.pair
    if target is not None:
        if i == j:
            collides = epi_missed(target) == i or target.table.count(i) == 0
        else:
            collides = (i < target.dom.size and j < target.dom.size
                        and target.table[i] == target.table[j])
        if collides:
            return True, "collision reproduced on the recomputed map"
        return False, "the cited pair no longer collides"
    if same:
        return True, "deterministic re-run reproduced the identical witness"
    return False, "re-run produced a different witness"


def _print_report(rep: CheckReport, target_desc: str, fmt: str, extra: dict | None = None) -> None:
    if fmt == "json":
        payload = {"command": "check", "target": target_desc, "report": rep.to_json()}
        if extra:
            payload.update(extra)
        sys.stdout.write(canonical_json(payload))
        return
    word = _verdict("PASS" if rep.passed else "FAIL", rep.passed, sys.stdout)
    print(f"{rep.prop} on {target_desc}: {word}")
    if rep.detail:
        print(f"  detail: {rep.detail}")
    if not rep.passed:
        if rep.failure_kind:
            print(f"  clause: {rep.failure_kind}")
        if rep.witness is not None:
            loc = " ".join(f"{a}={v}" for a, v in rep.witness.location)
            print(f"  witness: {loc} pair={rep.witness.pair}")
            if rep.witness.provenance:
                print(f"  provenance: {rep.witness.provenance}")
    if extra:
        for key, value in extra.items():
            print(f"  {key}: {value}")


def cmd_validate(args) -> int:
    try:
        obj, desc = _load_target(args)
        rep = _deep_validate(obj)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _print_report(rep, desc, args.format)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def cmd_check(args) -> int:
    if args.property not in CHECK_PROPERTIES:
        print(f"error: unknown property {args.property!r}", file=sys.stderr)
        return EXIT_INPUT
    try:
        obj, desc = _load_valid(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.replay:
        try:
            import json

            with open(args.replay, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            witness_data = data.get("report", data).get("witness") if isinstance(data, dict) else None
            if witness_data is None:
                raise DocumentError("replay file carries no witness")
        except (OSError, ValueError) as exc:
            print(f"error: cannot read replay file: {exc}", file=sys.stderr)
            return EXIT_INPUT
        try:
            ok, message = _replay(obj, args.property, witness_data)
        except DocumentError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if args.format == "json":
            sys.stdout.write(canonical_json({
                "command": "replay", "target": desc, "property": args.property,
                "reproduced": ok, "message": message,
            }))
        else:
            word = _verdict("REPLAYED" if ok else "NOT REPRODUCED", ok, sys.stdout)
            print(f"replay of {args.property} witness on {desc}: {word} ({message})")
        return EXIT_PASS if ok else EXIT_FAIL
    try:
        rep = _run_check(obj, args.property)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _print_report(rep, desc, args.format)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _emit(doc: dict, out: str | None) -> None:
    text = canonical_json(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_latch(args) -> int:
    try:
        obj, desc = _load_valid(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.simplicial is not None:
            n = args.simplicial
            if isinstance(obj, SimplicialSet):
                latch = simplicial_latching(view_of_sset(obj), n, SetsAmbient())
                doc = to_document(latch.nu, name=f"latching-{n}")
            elif isinstance(obj, SimplicialSpectrum):
                doc = to_document(latch_of_simplicial_spectrum(obj, n).nu, name=f"latching-{n}")
            else:
                raise DocumentError("latch --simplicial needs an sset or simplicial-spectrum document")
        else:
            n = args.spectral
            if not isinstance(obj, SymSpectrum):
                raise DocumentError("latch --spectral needs a spectrum document")
            doc = to_document(spectral_latching(obj, n).nu, name=f"spectral-latching-{n}")
    except (TruncationError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(doc, args.output)
    return EXIT_PASS


def cmd_realize(args) -> int:
    try:
        obj, desc = _load_valid(args)
        if isinstance(obj, SimplicialSpectrum):
            doc = to_document(realize(obj), name="realization")
        elif isinstance(obj, SimplicialSpectrumMap):
            doc = to_document(realize_map(obj), name="realization")
        else:
            raise DocumentError("realize needs a simplicial-spectrum(-map) document")
    except (TruncationError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(doc, args.output)
    return EXIT_PASS


def cmd_cofiber(args) -> int:
    try:
        obj, desc = _load_valid(args)
        if not isinstance(obj, SimplicialSpectrumMap):
            raise DocumentError("cofiber needs a simplicial-spectrum-map document")
        z, proj = pointwise_cofiber(obj)
        doc = to_document(proj, name="pointwise-cofiber")
    except (TruncationError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(doc, args.output)
    return EXIT_PASS


def cmd_selftest(args) -> int:
    suites = [args.suite] if args.suite else ["3.2", "4.1", "4.2", "1.4", "lemmas"]
    summaries = []
    for suite in suites:
        if suite not in SUITE_ALIASES:
            print(f"error: unknown suite {suite!r}", file=sys.stderr)
            return EXIT_INPUT
        summaries.append(run_suite(suite, seed=args.seed, cases=args.cases,
                                   strategy=args.strategy))
    if args.format == "json":
        sys.stdout.write(canonical_json({
            "command": "selftest", "seed": args.seed,
            "suites": [s.to_json() for s in summaries],
        }))
    else:
        for s in summaries:
            word = _verdict("PASS" if s.passed else "FAIL", s.passed, sys.stdout)
            print(f"suite {s.suite} (seed {s.seed}): {s.passes}/{s.cases} passed, "
                  f"{s.discards} discarded: {word}")
            if s.counterexample is not None:
                path = f"counterexample-{s.suite}-case-{s.counterexample['case']}.json"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(canonical_json(s.counterexample))
                print(f"  counterexample written to {path}")
    return EXIT_PASS if all(s.passed for s in summaries) else EXIT_FAIL


def _case_count(text: str) -> int:
    """A nonnegative case count; argparse turns the error into exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"--cases must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latchcheck",
        description="Certify cofibration classes, goodness, Reedy cofibrancy and "
                    "realization properties of truncated symmetric spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target(p):
        p.add_argument("file", nargs="?", help="document file (JSON)")
        p.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a built-in object")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="structural validation of a document")
    add_target(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="run a named property check")
    add_target(p)
    p.add_argument("property", choices=CHECK_PROPERTIES)
    p.add_argument("--replay", metavar="WITNESS_FILE",
                   help="re-verify a previously emitted witness instead of reporting anew")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("latch", help="compute a latching comparison map")
    add_target(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--simplicial", type=int, metavar="N")
    grp.add_argument("--spectral", type=int, metavar="N")
    p.add_argument("-o", "--output", help="write the result document here")
    p.set_defaults(func=cmd_latch)

    p = sub.add_parser("realize", help="geometric realization (levelwise diagonal)")
    add_target(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("cofiber", help="pointwise cofiber of a simplicial-spectrum map")
    add_target(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_cofiber)

    p = sub.add_parser("selftest", help="run the randomized theorem suites")
    p.add_argument("--suite", choices=sorted(set(SUITE_ALIASES)),
                   help="one suite (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cases", type=_case_count, default=None,
                   help="cases per suite (defaults per suite)")
    p.add_argument("--strategy", choices=("structured-good", "rejection", "adversarial"),
                   default="structured-good")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
