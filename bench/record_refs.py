"""Record the input pools and reference outputs in bench/refs/.

Run from the repository root:

    python3 bench/record_refs.py exact-p1 extremal-p verify-suite

References are the outputs of the commit this is run at, cross-checked
where an independent path exists: the 1-Laplacian eigenpairs against an
unscreened exact solve of every sign pattern, lambda_1 against h_1, and
h_1 against the subset-enumeration oracle in tests/oracles.py. A mismatch
is printed and the independent answer is recorded, so the run reports the
job as failed instead of hiding the defect.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from inputs import random_graph, screen_survivors  # noqa: E402
from sgspec import cli  # noqa: E402
from sgspec.graph import balance_state, BalanceState, parse_graph, serialize_graph  # noqa: E402
from sgspec.harness import random_signed_graph  # noqa: E402
from sgspec.operators import one_lap_lambda_range  # noqa: E402

MASTER_SEED = 20221001


def _oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_cli(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _with_file(doc, fn):
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=HERE, delete=False) as fh:
        json.dump(doc, fh)
    try:
        return fn(fh.name)
    finally:
        Path(fh.name).unlink()


def exhaustive_pairs(doc) -> set:
    """1-Laplacian pairs over every sign pattern, with no float screen."""
    g = parse_graph(json.dumps(doc))
    pairs = set()
    for pattern in product((0, 1, -1), repeat=g.n):
        if next((t for t in pattern if t != 0), 0) != 1:
            continue
        for lo, hi in one_lap_lambda_range(g, np.array(pattern, dtype=float)):
            pairs.add((str(lo), str(hi), pattern))
    return pairs


def record_exact_p1():
    oracles = _oracles()
    rng = np.random.default_rng([MASTER_SEED, 1])
    size = W.ONELAP_TIERS * W.ONELAP_TIER_SIZE
    docs = [random_graph(rng, W.ONELAP_N, W.ONELAP_M, "uniform") for _ in range(size)]
    docs.sort(key=lambda d: screen_survivors(d)[1])
    onelap = []
    for i, doc in enumerate(docs):
        scanned, survivors = screen_survivors(doc)
        code, out = _with_file(doc, lambda p: run_cli(["onelap", "--graph", p, "--verify"]))
        _, ch = _with_file(doc, lambda p: run_cli(["cheeger", "--graph", p, "--k", "1"]))
        exact = exhaustive_pairs(doc)
        ids = [vx["id"] for vx in doc["vertices"]]
        got = {(pr["lambda"], pr["lambda_hi"], tuple(pr["f"][v] for v in ids))
               for pr in out["pairs"]}
        ref = {k: out[k] for k in ("eigenvalues", "lambda_1", "lambda_2", "smallest_positive")}
        if code != 0 or got != exact:
            print(f"onelap o{i:02d}: output differs from the exhaustive solve", file=sys.stderr)
            values = sorted({Fraction(v) for lo, hi, _ in exact for v in (lo, hi)})
            g = parse_graph(json.dumps(doc))
            pos = [v for v in values if v > 0]
            bal = balance_state(g).state in (BalanceState.BALANCED, BalanceState.BOTH)
            ref = {"eigenvalues": [str(v) for v in values], "lambda_1": str(values[0]),
                   "smallest_positive": str(pos[0]) if pos else None,
                   "lambda_2": str(pos[0]) if pos and bal and values[0] == 0 else None}
        ref["pairs"] = sorted([lo, hi, list(f)] for lo, hi, f in exact)
        h1 = oracles.cheeger_h1_oracle(parse_graph(json.dumps(doc)))
        if Fraction(ch["value"]) != h1 or Fraction(ref["lambda_1"]) != h1:
            print(f"onelap o{i:02d}: lambda_1 / h_1 / oracle disagree", file=sys.stderr)
        onelap.append({"id": f"o{i:02d}", "graph": doc, "onelap": ref, "h1": str(h1),
                       "props": {"edges": W.ONELAP_M, "scanned": scanned,
                                 "survivors": survivors}})
        print(f"onelap o{i:02d}: {survivors}/{scanned} patterns pass the screen", flush=True)
    cheeger = []
    for i in range(W.CHEEGER_POOL):
        doc = random_graph(rng, W.CHEEGER_N, W.CHEEGER_M, "uniform")
        vals = {}
        for k in ("1", "2"):
            _, out = _with_file(doc, lambda p: run_cli(["cheeger", "--graph", p, "--k", k]))
            vals["h" + k] = out["value"]
        if Fraction(vals["h1"]) != oracles.cheeger_h1_oracle(parse_graph(json.dumps(doc))):
            print(f"cheeger c{i:02d}: h_1 disagrees with the oracle", file=sys.stderr)
        cheeger.append({"id": f"c{i:02d}", "graph": doc, **vals})
    return {"onelap": onelap, "cheeger": cheeger}


def record_extremal_p():
    rng = np.random.default_rng([MASTER_SEED, 2])
    graphs = []
    for model in W.EXTREMAL_MODELS:
        for i in range(W.EXTREMAL_POOL):
            doc = random_graph(rng, W.EXTREMAL_N, W.EXTREMAL_M, model)
            lams = {}
            for p in ("1.5", "3"):
                argv = ["extremal", "--p", p, *W.EXTREMAL_ARGS]
                code, out = _with_file(doc, lambda f: run_cli([*argv, "--graph", f]))
                if code != 0:
                    print(f"extremal {model} {i}: p={p} not certified", file=sys.stderr)
                lams[p] = [out["lambda_min"], out["lambda_max"]]
            graphs.append({"id": f"{model[0]}{i:02d}", "model": model, "graph": doc,
                           "lambda": lams})
            print(f"extremal {model} {i}: {lams}", flush=True)
    return {"graphs": graphs}


def record_verify_suite():
    configs = []
    for n in W.VERIFY_NS:
        for k in range(W.VERIFY_POOL):
            aggregates = {}
            for check in W.VERIFY_CHECKS:
                cfg = W.verify_config(n, k, check)
                code, out = _with_file(cfg, lambda p: run_cli(["verify", "--config", p]))
                if code != 0 or not out["ok"]:
                    print(f"verify n={n} k={k} {check}: suite failed", file=sys.stderr)
                aggregates[check] = out["aggregates"][check]
            # The trial's main graph, drawn the way run_suite draws it, for
            # the input properties only.
            cfg = W.verify_config(n, k, W.VERIFY_CHECKS[0])
            trng = np.random.default_rng((cfg["seed"], 0))
            n_drawn = int(trng.integers(cfg["n_min"], cfg["n_max"] + 1))
            g = random_signed_graph(n_drawn, cfg["density"], cfg["models"][0],
                                    seed=int(trng.integers(0, 2**31)),
                                    mu_mode=cfg["mu_mode"], connected=True)
            scanned, survivors = screen_survivors(json.loads(serialize_graph(g)))
            configs.append({"n": n, "k": k, "aggregates": aggregates,
                            "props": {"edges": len(g.edges), "scanned": scanned,
                                      "survivors": survivors}})
            print(f"verify n={n} k={k}: {survivors}/{scanned} patterns pass", flush=True)
    return {"configs": configs}


def main(argv):
    recorders = {"exact-p1": record_exact_p1, "extremal-p": record_extremal_p,
                 "verify-suite": record_verify_suite}
    for name in argv or recorders:
        doc = recorders[name]()
        W.REFS_DIR.mkdir(exist_ok=True)
        (W.REFS_DIR / f"{name}.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
