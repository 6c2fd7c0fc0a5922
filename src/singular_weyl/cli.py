"""Command-line front end.

Subcommands: admissible, ktypes, verify, structure, plot-data.
Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 I/O error.  SINGULAR_WEYL_SEED overrides --seed.  ``verify`` checks at the
fixed bounds of ``config.DEFAULT_TOLERANCES``; no option changes them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .admissibility import (
    ParameterSet,
    S_PRESETS,
    admissible_pairs,
    enumerate_admissible,
    is_admissible,
)
from .structure import (
    composition_series,
    decompose,
    ktype_lattice,
    ladder_graph,
    level_curves_csv,
)
from .verify import run_verification

def parse_complex(text: str) -> complex:
    """Parse 're+imi' syntax: '0+0.5i', '-0.25', '1.5i', 'i'."""
    text = text.strip().replace(" ", "")
    if text in S_PRESETS:
        return S_PRESETS[text]
    if not text:
        raise ValueError("empty complex value")
    try:
        if text[-1] in "ij":
            body = text[:-1]
            # split at the last sign that is not leading and not an exponent sign
            split = 0
            for pos in range(len(body) - 1, 0, -1):
                if body[pos] in "+-" and body[pos - 1] not in "eE":
                    split = pos
                    break
            re_part, im_part = body[:split], body[split:]
            if im_part in ("", "+"):
                im_val = 1.0
            elif im_part == "-":
                im_val = -1.0
            else:
                im_val = float(im_part)
            return complex(float(re_part) if re_part else 0.0, im_val)
        return complex(float(text), 0.0)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex value {text!r}") from exc


def _resolve_s(args) -> complex:
    if args.s:
        return parse_complex(args.s)
    return S_PRESETS[args.preset or "schrodinger"]


def _resolve_seed(args) -> int:
    env = os.environ.get("SINGULAR_WEYL_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _emit(text: str, path: str | None) -> None:
    """Write text, ending in a newline, to path or (None or '-') stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def cmd_admissible(args) -> int:
    n = args.n
    if args.lam is not None:
        lam = args.lam
        admissible = is_admissible(n, lam) and lam != 0
        pairs = [list(p) for p in admissible_pairs(n, lam)] if admissible else []
        if args.format == "json":
            _emit(_json({"n": n, "lambda": lam, "admissible": admissible, "pairs": pairs}), args.output)
        elif args.format == "csv":
            _emit("\n".join(["l,k"] + [f"{l},{k}" for l, k in pairs]), args.output)
        elif admissible:
            _emit("\n".join(f"({l}, {k})" for l, k in pairs), args.output)
        else:
            _emit(f"lambda = {lam} is not admissible for n = {n}", args.output)
        return 0
    lam_max = args.lam_max if args.lam_max is not None else 50
    values = [int(ev) for ev in enumerate_admissible(n, lam_max)]
    if args.format == "json":
        _emit(_json({"n": n, "lambda_max": lam_max, "admissible": values}), args.output)
    elif args.format == "csv":
        _emit("\n".join(["lambda"] + [str(v) for v in values]), args.output)
    else:
        _emit(" ".join(str(v) for v in values), args.output)
    return 0


def cmd_ktypes(args) -> int:
    params = ParameterSet(n=args.n, q=args.q, s=_resolve_s(args))
    if args.lam is not None:
        if not is_admissible(params.n, args.lam) or args.lam == 0:
            print(f"lambda = {args.lam} is not admissible for n = {params.n}", file=sys.stderr)
            return 2
        vectors = [
            F for F in ktype_lattice(params, args.lam, args.m_max) if F.lam.value == args.lam
        ]
    else:
        vectors = ktype_lattice(params, args.lam_max, args.m_max)
    _emit(_json([v.to_json() for v in vectors]), args.output)
    return 0


def cmd_verify(args) -> int:
    params = ParameterSet(n=args.n, q=args.q, s=_resolve_s(args))
    report = run_verification(params, args.lam_max, args.m_max, _resolve_seed(args))
    _emit(_json(report), args.output)
    if not report["ok"]:
        failures = [c["check"] for c in report["checks"] if c["status"] == "FAIL"]
        print("FAILED checks: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def cmd_structure(args) -> int:
    params = ParameterSet(n=args.n, q=args.q, s=_resolve_s(args))
    series = composition_series(params)
    out = {
        "n": params.n,
        "q": params.q,
        "case": series.case,
        "chain": list(series.chain),
    }
    if args.lam is not None:
        out["decomposition"] = [d.to_json() for d in decompose(params, args.lam)]
    if args.format == "json":
        _emit(_json(out), args.output)
    else:
        lines = [f"case ({series.case}): " + " < ".join(series.chain)]
        for d in out.get("decomposition", []):
            flags = []
            if d["has_lowest"]:
                flags.append("lowest")
            if d["has_highest"]:
                flags.append("highest")
            if d["irreducible"]:
                flags.append("irreducible")
            lines.append(
                f"  H[l={d['l']},k={d['k']}] lambda={d['lambda'][0]}"
                + (f"/{d['lambda'][1]}" if d["lambda"][1] != 1 else "")
                + (" (" + ", ".join(flags) + ")" if flags else "")
            )
        _emit("\n".join(lines), args.output)
    return 0


# (flag, dest, default) of the options only the graph figures read; the
# plot-data parser defaults them to None so that levels can reject each one.
_GRAPH_OPTIONS = (
    ("--format", "format", "json"),
    ("--q", "q", 0),
    ("--s", "s", None),
    ("--preset", "preset", None),
    ("--lambda", "lam", None),
    ("--m-min", "m_min", 0),
    ("--m-max", "m_max", 20),
)


def cmd_plotdata(args) -> int:
    given = [flag for flag, dest, _ in _GRAPH_OPTIONS if getattr(args, dest) is not None]
    if args.figure == "levels" and given:
        raise ValueError(f"--figure levels does not read {', '.join(given)}")
    for _, dest, default in _GRAPH_OPTIONS:
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    params = ParameterSet(n=args.n, q=args.q, s=_resolve_s(args))
    if args.figure == "levels":
        _emit(level_curves_csv(params.n, args.lam_max), args.output)
        return 0
    # "lattice" honours --lambda; "heisenberg" adds the lambda = 0 family and the E edges
    heisenberg = args.figure == "heisenberg"
    graph = ladder_graph(
        params,
        args.lam_max,
        (args.m_min, args.m_max),
        include_zero_family=heisenberg,
        lambdas=[args.lam] if args.lam is not None and not heisenberg else None,
        with_heisenberg=heisenberg,
    )
    _emit(graph.to_dot() if args.format == "dot" else _json(graph.to_json()), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singular-weyl",
        description=(
            "Admissibility arithmetic, hypergeometric K-type bases, ladder "
            "operators and module structure for the inverse-square-potential "
            "Schrodinger/heat equation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--n", type=int, required=True, help="spatial dimension")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    def parameters(p):
        p.add_argument("--q", type=int, default=0, help="character residue mod 4")
        p.add_argument("--s", type=str, default=None, help="complex s, 're+imi' syntax")
        p.add_argument(
            "--preset", choices=sorted(S_PRESETS), default=None,
            help="s preset (schrodinger: i/2, heat: -1/4)",
        )

    p = sub.add_parser("admissible", help="admissible eigenvalues and pairs")
    common(p, ("json", "csv", "text"))
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--lambda-max", dest="lam_max", type=int, default=None)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("ktypes", help="serialize K-type basis vectors")
    common(p, ())
    parameters(p)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--lambda-max", dest="lam_max", type=int, default=12)
    p.add_argument("--m-max", dest="m_max", type=int, default=12)
    p.set_defaults(func=cmd_ktypes)

    p = sub.add_parser("verify", help="run the invariant suite and emit a report")
    common(p, ())
    parameters(p)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--lambda-max", dest="lam_max", type=int, default=30)
    p.add_argument("--m-max", dest="m_max", type=int, default=14)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("structure", help="composition series and decomposition")
    common(p, ("json", "text"))
    parameters(p)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("plot-data", help="figure data export (levels/lattice/heisenberg)")
    common(p, ("json", "dot"))
    parameters(p)
    p.add_argument("--figure", choices=("levels", "lattice", "heisenberg"), required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--lambda-max", dest="lam_max", type=int, default=30)
    p.add_argument("--m-min", dest="m_min", type=int, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.set_defaults(func=cmd_plotdata, format=None, q=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
