"""Command-line interface.

Exit codes: 0 success, 1 a verification/check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

import numpy as np

from . import cheeger as _cheeger
from .graph import (
    GraphError,
    ParseError,
    _indented_json,
    parse_function,
    parse_graph,
    serialize_graph,
    with_degree_measure,
)
from .harness import SuiteConfig, random_signed_graph, run_suite
from .nodal import nodal_quantities
from .operators import check_certificates_1lap
from .spectra import RESTARTS, extremal_p, one_lap_enumerate, spectrum_p2
from .transforms import remove_edge, remove_node


def _load_graph(path: str):
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _load_function(path: str, g):
    with open(path, "rb") as fh:
        return parse_function(fh.read(), g)


def _emit(doc, fmt: str):
    if fmt == "json":
        print(_indented_json(doc))
    else:
        for key, val in doc.items():
            print(f"{key}: {val}")


def _one_lap_doc(ols) -> dict:
    """The eigenvalue keys of ``onelap``, all but lambda_2 shared with
    ``spectrum --p 1``: exact values as strings, a missing one as null."""
    return {"eigenvalues": [str(v) for v in ols.values],
            **{key: None if (v := getattr(ols, key)) is None else str(v)
               for key in ("lambda_1", "lambda_2", "smallest_positive")}}


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    if args.p == 2.0:
        spec = spectrum_p2(g)
        doc = {
            "eigenvalues": spec.values.tolist(),
            "multiplicities": [len(grp) for grp in spec.groups],
            "eigenvectors": dict(zip(g.ids, spec.vectors.tolist())),
        }
    elif args.p == 1.0:
        doc = _one_lap_doc(one_lap_enumerate(g))
        del doc["lambda_2"]
    else:
        print("full spectra are only available for p in {1, 2}; "
              "use 'extremal' for other p", file=sys.stderr)
        return 2
    _emit(doc, args.format)
    return 0


def _cmd_extremal(args) -> int:
    g = _load_graph(args.graph)
    res = extremal_p(g, args.p, restarts=args.restarts, seed=args.seed)
    doc = {
        "p": res.p,
        "lambda_min": res.lambda_min,
        "lambda_max": res.lambda_max,
        "residual_min": res.residual_min,
        "residual_max": res.residual_max,
        "converged_min": res.converged_min,
        "converged_max": res.converged_max,
        "f_min": {g.ids[i]: float(res.f_min[i]) for i in range(g.n)},
        "f_max": {g.ids[i]: float(res.f_max[i]) for i in range(g.n)},
    }
    _emit(doc, args.format)
    return 0 if (res.converged_min and res.converged_max) else 1


def _cmd_nodal(args) -> int:
    g = _load_graph(args.graph)
    f = _load_function(args.function, g)
    q = nodal_quantities(g, f)
    doc = {
        "strong": q.strong_count,
        "weak": q.weak_count,
        "zeros": q.zeros,
        "e_plus": q.e_plus,
        "e_minus": q.e_minus,
        "e_zero": q.e_zero,
        "l_plus": q.l_plus,
        "l_minus": q.l_minus,
        "identity_ok": q.identity_ok,
        "strong_sets": [sorted(g.ids[i] for i in s) for s in q.strong_sets],
        "weak_closures": [sorted(g.ids[i] for i in s) for s in q.weak_closures],
    }
    if args.dual:
        doc["dual_strong"], doc["dual_weak"] = q.dual_strong_count, q.dual_weak_count
    _emit(doc, args.format)
    return 0 if q.identity_ok else 1


def _cmd_cheeger(args) -> int:
    g = _load_graph(args.graph)
    if args.mu_mode == "degree":
        g = with_degree_measure(g)
    res = _cheeger.cheeger_k(g, args.k, heuristic=args.heuristic)
    doc = {
        "k": args.k,
        "value": str(res.value),
        "value_float": float(res.value),
        "exact": res.exact,
        "pairs": [
            [sorted(g.ids[i] for i in v1), sorted(g.ids[i] for i in v2)]
            for v1, v2 in res.pairs
        ],
        "pair_values": [str(v) for v in res.pair_values],
        "subsets_scored": res.subsets_scored,
    }
    _emit(doc, args.format)
    return 0


def _covers_every_pattern(n: int, blocks) -> bool:
    """Whether the columns of the blocks are the (3**n - 1) / 2 sign patterns
    led by +1, each once: entries in {-1, 0, 1}, the first nonzero one +1,
    and distinct base-3 codes."""
    if any(len(t) != n or not np.isin(t, (-1, 0, 1)).all()
           or (t[(t != 0).argmax(axis=0), np.arange(t.shape[1])] != 1).any() for t in blocks):
        return False
    codes = np.concatenate([3 ** np.arange(n) @ (t + 1) for t in blocks])
    return codes.size == (3**n - 1) // 2 == np.unique(codes).size


def _uncertified(g, ols) -> str | None:
    """Why the certificates of ``ols`` fail to prove its pairs, and that no
    other sign pattern is one, or None if they prove it. One pass over
    ``ols.certificates``: every column checks, the blocks cover every
    pattern once, and the pairs are the witnessed (lambda, pattern) pairs.
    A malformed certificate is a failed check, not a usage error."""
    witnessed = []
    for kind, t, *certs in ols.certificates:
        try:
            ok = check_certificates_1lap(g, kind, t, *certs)
        except GraphError as exc:
            return f"a {kind} certificate is malformed: {exc}"
        if not ok.all():
            return f"{kind} certificate of pattern {tuple(t.T[~ok][0].tolist())} failed its check"
        if kind == "witness":
            witnessed += zip(zip(*t.tolist()), map(Fraction, certs[0], certs[1]))
    if not _covers_every_pattern(g.n, [t for _, t, *_ in ols.certificates]):
        return "the certificates do not cover every sign pattern"
    if len(witnessed) != len(ols.pairs) or dict(witnessed) != {p.f: p.lam for p in ols.pairs}:
        return "the pairs are not the witnessed eigenpairs"


def _cmd_onelap(args) -> int:
    g = _load_graph(args.graph)
    ols = one_lap_enumerate(g)
    doc = {
        **_one_lap_doc(ols),
        "patterns_scanned": ols.patterns_scanned,
        "patterns_solved": ols.patterns_solved,
        "pairs": [
            # every pair is a point; "lambda_hi" stays in the output schema
            {"lambda": str(p.lam), "lambda_hi": str(p.lam),
             "f": {g.ids[i]: p.f[i] for i in range(g.n)}}
            for p in ols.pairs
        ],
    }
    if args.verify:
        if failure := _uncertified(g, ols):
            print(failure, file=sys.stderr)
            return 1
        doc["verified"] = {"pairs": len(ols.pairs), "rejections": sum(
            t.shape[1] for kind, t, *_ in ols.certificates if kind != "witness")}
    _emit(doc, args.format)
    return 0


def _cmd_transform(args) -> int:
    g = _load_graph(args.graph)
    if args.remove_edge:
        if not args.function:
            print("--remove-edge requires --function", file=sys.stderr)
            return 2
        if args.remove_edge.count(",") != 1:
            print("--remove-edge takes two vertex ids, u,v", file=sys.stderr)
            return 2
        f = _load_function(args.function, g)
        uid, vid = args.remove_edge.split(",")
        res = remove_edge(g, args.p, f, (g.index(uid), g.index(vid)))
    elif args.remove_node is not None:
        f = _load_function(args.function, g) if args.function else None
        res = remove_node(g, g.index(args.remove_node), f)
    else:
        print("specify --remove-edge u,v or --remove-node x", file=sys.stderr)
        return 2
    out = serialize_graph(res.graph).decode()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        print(out)
    _emit({"kind": res.kind, "kappa_changes": res.kappa_changes}, args.format)
    return 0


def _cmd_verify(args) -> int:
    with open(args.config, "rb") as fh:
        cfg = SuiteConfig.from_json(fh.read())
    report = run_suite(cfg)
    print(report.to_json())
    return 0 if report.ok else 1


def _cmd_random(args) -> int:
    g = random_signed_graph(
        args.n, density=args.density, model=args.model, seed=args.seed,
        mu_mode=args.mu_mode, connected=args.connected,
    )
    out = serialize_graph(g).decode()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        print(out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: parsing
    leaves it unchanged, and building it costs more than a small job."""
    ap = argparse.ArgumentParser(
        prog="sgspec",
        description="Spectral toolkit for generalized p-Laplacians on signed graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("spectrum", help="full spectrum (p=2 exact, p=1 enumerated)")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=float, default=2.0)
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("extremal", help="certified extremal eigenpairs for p > 1")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--restarts", type=int, default=RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("nodal", help="nodal domain counts and identities")
    p.add_argument("--graph", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--dual", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_nodal)

    p = sub.add_parser("cheeger", help="exact k-way signed Cheeger constant")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu-mode", choices=("unit", "degree"), default="unit",
                   dest="mu_mode", help="override vertex measure by weighted degree")
    p.add_argument("--heuristic", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_cheeger)

    p = sub.add_parser("onelap", help="enumerated 1-Laplacian eigenpairs")
    p.add_argument("--graph", required=True)
    p.add_argument("--verify", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_onelap)

    p = sub.add_parser("transform", help="edge/node surgery")
    p.add_argument("--graph", required=True)
    p.add_argument("--remove-edge", dest="remove_edge")
    p.add_argument("--remove-node", dest="remove_node")
    p.add_argument("--function")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="run the randomized check suite")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random", help="generate a random signed graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.6)
    p.add_argument("--model", default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu-mode", choices=("unit", "degree"), default="unit", dest="mu_mode")
    p.add_argument("--connected", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_random)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that cannot be opened as asked
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"{reason}: {exc.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
