"""Command-line interface.

Subcommands:

* examples: replay the bundled golden fixtures; exit 1 on a strict miss.
* sweep: run a risk sweep from a JSON config, write CSV and manifest.
* oracle: Monte Carlo cross-check of closed-form risks for one fixture.
* diag: covariance regularity diagnostics for a covariance descriptor.

Exit codes: 0 success, 1 golden or oracle failure, 2 configuration error.
A handler raises ConfigError for bad input, and main turns it into a
"config error: ..." line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .covariance import (CovarianceModel, assumption_diagnostics,
                         diffusion_covariance, gram_covariance)
from .harness import ORACLE_FIXTURES, ConfigError, SweepConfig, _fixture_setting, \
    emit_csv, emit_manifest, oracle_cases, run_examples, run_sweep
from .network import AdjacencyRule, build_grid, segment_graph
from .risk import mc_risk
from .trips import ODLaw, sample_trips

__all__ = ["main"]


def _cmd_examples(_args) -> int:
    report = run_examples()
    print(report.format())
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(args.config)
    start = time.perf_counter()
    rows = run_sweep(cfg)
    wall = time.perf_counter() - start
    emit_csv(rows, args.out)
    emit_manifest(cfg, args.manifest, wall, rows)
    print(f"{len(rows)} cells in {wall:.1f}s -> {args.out} (manifest {args.manifest})")
    return 0


def _cmd_oracle(args) -> int:
    if args.replicates < 1:
        raise ConfigError(f"--replicates must be at least 1, got {args.replicates}")
    cases = oracle_cases(args.fixture)
    ds, cov, prior, _ = _fixture_setting(args.fixture)
    ok = True
    for name, pred, exact in cases:
        mc = mc_risk(pred, ds, cov, prior, replicates=args.replicates, seed=args.seed)
        z = abs(mc.mean - exact) / mc.se if mc.se > 0 else 0.0
        status = "PASS" if z <= 3.0 else "FAIL"
        ok = ok and status == "PASS"
        print(f"[{status}] {args.fixture}/{name}: exact {exact:.6f}  "
              f"mc {mc.mean:.6f} +/- {mc.se:.6f}  (z = {z:.2f}, R = {mc.replicates})")
    return 0 if ok else 1


def _parse_covariance(descriptor: str) -> tuple[CovarianceModel, int | None]:
    """Build a covariance from a compact descriptor.

    Formats: "diffusion:p=10,u=1,v=1,white=1,rule=calibrated",
    "gram:p=3,m=50,law=unif_neg1_1,seed=0", or "csv:path.csv".
    Returns the model and, when known, the grid size for route sampling.
    """
    kind, _, rest = descriptor.partition(":")
    if kind == "csv":
        if not rest:
            raise ConfigError("csv descriptor needs a path: csv:FILE")
        try:
            return CovarianceModel.from_csv(rest), None
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read covariance csv {rest!r}: {e}") from None
    opts = {}
    if rest:
        for tok in rest.split(","):
            key, _, val = tok.partition("=")
            if not _ or not key:
                raise ConfigError(f"bad descriptor option {tok!r}")
            opts[key.strip()] = val.strip()
    try:
        if kind == "diffusion":
            p = int(opts.pop("p"))
            graph = segment_graph(build_grid(p),
                                  rule=opts.pop("rule", AdjacencyRule.CALIBRATED))
            cov = diffusion_covariance(graph, u=float(opts.pop("u", 1.0)),
                                       v=float(opts.pop("v", 1.0)),
                                       white=float(opts.pop("white", 0.0)))
        elif kind == "gram":
            p = int(opts.pop("p"))
            n_segments = build_grid(p).n_segments
            cov = gram_covariance(n_segments, int(opts.pop("m")),
                                  law=opts.pop("law", "unif_neg1_1"),
                                  seed=int(opts.pop("seed", 0)))
        else:
            raise ConfigError(f"unknown covariance kind {kind!r}; "
                              "use diffusion, gram, or csv")
    except KeyError as e:
        raise ConfigError(f"descriptor missing required option {e.args[0]!r}") from None
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"bad descriptor value: {e}") from None
    if opts:
        raise ConfigError(f"unknown descriptor options: {sorted(opts)}")
    return cov, p


def _cmd_diag(args) -> int:
    cov, p = _parse_covariance(args.covariance)
    routes = None
    if p is not None and args.routes > 0:
        rng = np.random.default_rng(args.seed)
        ds = sample_trips(ODLaw(p, 1.0), build_grid(p), rng, args.routes)
        routes = np.split(ds.flat, ds.offsets[1:-1])
    print(json.dumps(assumption_diagnostics(cov, routes=routes), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="etalab",
        description="Travel-time estimator lab: golden examples, risk sweeps, "
                    "Monte Carlo oracles, covariance diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("examples", help="replay bundled fixtures against golden values")

    p_sweep = sub.add_parser("sweep", help="run a risk sweep from a JSON config")
    p_sweep.add_argument("--config", required=True, help="JSON config file")
    p_sweep.add_argument("--out", default="results.csv", help="output CSV path")
    p_sweep.add_argument("--manifest", default="manifest.json",
                         help="output manifest path")

    p_oracle = sub.add_parser("oracle", help="Monte Carlo check of closed-form risks")
    p_oracle.add_argument("--fixture", required=True,
                          choices=list(ORACLE_FIXTURES))
    p_oracle.add_argument("--replicates", type=int, default=10 ** 5)
    p_oracle.add_argument("--seed", type=int, default=0)

    p_diag = sub.add_parser("diag", help="covariance regularity diagnostics")
    p_diag.add_argument("--covariance", required=True,
                        help="descriptor: diffusion:p=10,u=1,v=1,white=1 | "
                             "gram:p=3,m=50 | csv:FILE")
    p_diag.add_argument("--routes", type=int, default=20,
                        help="sample routes for block diagnostics (0 to skip)")
    p_diag.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    handler = {"examples": _cmd_examples, "sweep": _cmd_sweep,
               "oracle": _cmd_oracle, "diag": _cmd_diag}[args.command]
    try:
        # oracle and diag seed numpy generators, which reject negative seeds
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        return handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
